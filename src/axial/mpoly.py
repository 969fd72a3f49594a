"""Sparse multivariate polynomials over Q under the lexicographic order.

Terms live in a dict from exponent tuples to nonzero Fractions.  Exponent
tuples compare lexicographically with the first variable most significant, so
the leading term of p is simply max(p.terms).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from axial.linalg import frac

Exponent = tuple[int, ...]


class MPoly:
    """Polynomial in nvars variables with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None, *, _clean=True):
        self.nvars = nvars
        if terms is None:
            self.terms: dict[Exponent, Fraction] = {}
        elif _clean:
            self.terms = {}
            for exp, c in terms.items():
                c = frac(c)
                if c:
                    if len(exp) != nvars:
                        raise ValueError("exponent length does not match nvars")
                    self.terms[tuple(exp)] = c
        else:
            self.terms = dict(terms)

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        c = frac(c)
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c}, _clean=False)

    @classmethod
    def var(cls, nvars: int, i: int, power: int = 1) -> "MPoly":
        exp = tuple(power if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: Fraction(1)}, _clean=False)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def lead(self) -> tuple[Exponent, Fraction]:
        """Lex-leading (exponent, coefficient); undefined on the zero polynomial."""
        exp = max(self.terms)
        return exp, self.terms[exp]

    def total_degree(self) -> int:
        return max((sum(exp) for exp in self.terms), default=0)

    def variables_used(self) -> set[int]:
        used = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(i)
        return used

    def univariate_coeffs(self, i: int) -> list[Fraction]:
        """Coefficients in variable i, lowest degree first; requires p in Q[x_i]."""
        if not self.variables_used() <= {i}:
            raise ValueError("polynomial is not univariate in the requested variable")
        deg = max((exp[i] for exp in self.terms), default=0)
        out = [Fraction(0)] * (deg + 1)
        for exp, c in self.terms.items():
            out[exp[i]] = c
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()}, _clean=False)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return MPoly(self.nvars, out, _clean=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s:
                    out[exp] = s
                elif exp in out:
                    del out[exp]
        return MPoly(self.nvars, out, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = MPoly.const(self.nvars, 1)
        for _ in range(k):
            result = result * self
        return result

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return MPoly.const(self.nvars, other)

    def scale(self, c) -> "MPoly":
        c = frac(c)
        if not c:
            return MPoly(self.nvars)
        return MPoly(self.nvars, {e: c * v for e, v in self.terms.items()}, _clean=False)

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        _, lc = self.lead()
        return self.scale(1 / lc)

    def substitute(self, assignments: Mapping[int, Fraction]) -> "MPoly":
        """Plug exact rational values in for some variables."""
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            value = c
            new_exp = list(exp)
            for i, r in assignments.items():
                e = exp[i]
                if e:
                    value *= frac(r) ** e
                new_exp[i] = 0
            if not value:
                continue
            key = tuple(new_exp)
            s = out.get(key, Fraction(0)) + value
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return MPoly(self.nvars, out, _clean=False)

    def evaluate(self, point: Iterable) -> Fraction:
        vals = [frac(x) for x in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for x, e in zip(vals, exp):
                if e:
                    term *= x**e
            total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = [str(c)]
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

"""Exact polynomial ring over the constants gamma, ln2, zeta(2), zeta(3).

Every closed-form quantity in this package (polygamma values at integer and
half-integer arguments, entropy cumulants, summation-identity residuals) lives
in Q[g, l2, z2, z3], the ring of polynomials with rational coefficients in

    g  = Euler-Mascheroni constant
    l2 = ln 2
    z2 = zeta(2)
    z3 = zeta(3)

Coefficients are `fractions.Fraction`, so all arithmetic is exact and a
quantity is zero iff its term map is empty.  zeta(2) is kept opaque (never
rewritten as pi^2/6) so that identity residuals cancel symbol by symbol; pi
enters only when a polynomial is evaluated numerically.

Equality of polynomials is structural.  Treating `is_zero` as a proof of a
numeric identity additionally assumes the four constants are algebraically
independent over Q, which is unproven; all identities checked here cancel
structurally, so nothing rests on that assumption in practice.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Union

import mpmath

#: symbol order used for exponent tuples
SYMBOLS = ("g", "l2", "z2", "z3")

Monomial = tuple[int, int, int, int]

_ZERO_MONO: Monomial = (0, 0, 0, 0)

Scalar = Union[int, Fraction]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction coefficient, got {type(value).__name__}")


class ConstPoly:
    """Immutable multivariate polynomial in (g, l2, z2, z3) over Q."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                coef = _as_fraction(coef)
                if coef != 0:
                    clean[tuple(mono)] = coef  # type: ignore[index]
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "ConstPoly":
        value = _as_fraction(value)
        return cls({_ZERO_MONO: value}) if value else cls()

    @classmethod
    def symbol(cls, name: str) -> "ConstPoly":
        if name not in SYMBOLS:
            raise ValueError(f"unknown symbol {name!r}; expected one of {SYMBOLS}")
        mono = [0, 0, 0, 0]
        mono[SYMBOLS.index(name)] = 1
        return cls({tuple(mono): Fraction(1)})  # type: ignore[arg-type]

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max((sum(m) for m in self._terms), default=0)

    # -- ring arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "ConstPoly":
        if isinstance(other, ConstPoly):
            return other
        return ConstPoly.const(other)

    def __add__(self, other) -> "ConstPoly":
        other = self._coerce(other)
        out = dict(self._terms)
        for mono, coef in other._terms.items():
            new = out.get(mono, Fraction(0)) + coef
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return ConstPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "ConstPoly":
        return ConstPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "ConstPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ConstPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ConstPoly":
        other = self._coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                new = out.get(mono, Fraction(0)) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return ConstPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ConstPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = ConstPoly.const(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ConstPoly.const(other)
        if not isinstance(other, ConstPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- numeric evaluation ---------------------------------------------------

    def evalf(self, precision: int = 30) -> mpmath.mpf:
        """Evaluate at `precision` decimal digits; requires precision >= 15."""
        if precision < 15:
            raise ValueError("precision must be at least 15 decimal digits")
        with mpmath.workdps(precision):
            vals = (
                mpmath.euler,
                mpmath.ln(2),
                mpmath.pi ** 2 / 6,
                mpmath.zeta(3),
            )
            total = mpmath.mpf(0)
            for mono, coef in self._terms.items():
                term = mpmath.mpf(coef.numerator) / coef.denominator
                for v, e in zip(vals, mono):
                    if e:
                        term *= v ** e
                total += term
            return total

    def __float__(self) -> float:
        return float(self.evalf(30))

    # -- canonical text form --------------------------------------------------

    @staticmethod
    def _sort_key(mono: Monomial):
        # graded-lex, z3 > z2 > l2 > g
        return (sum(mono), mono[3], mono[2], mono[1], mono[0])

    @staticmethod
    def _mono_text(mono: Monomial) -> str:
        parts = []
        for name, e in zip(SYMBOLS, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def to_text(self) -> str:
        """Canonical text form, e.g. ``75/8*z3 - 33/160*z2 - 295/27``."""
        if not self._terms:
            return "0"
        items = sorted(self._terms.items(), key=lambda kv: self._sort_key(kv[0]), reverse=True)
        chunks: list[str] = []
        for i, (mono, coef) in enumerate(items):
            mono_text = self._mono_text(mono)
            mag = abs(coef)
            if not mono_text:
                body = str(mag)
            elif mag == 1:
                body = mono_text
            else:
                body = f"{mag}*{mono_text}"
            if i == 0:
                chunks.append(body if coef > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if coef > 0 else f" - {body}")
        return "".join(chunks)

    @classmethod
    def from_text(cls, text: str) -> "ConstPoly":
        """Parse the canonical text form back into a polynomial."""
        text = text.strip()
        if text == "0":
            return cls()
        first_sign = 1
        if text.startswith("-"):
            first_sign, text = -1, text[1:]
        pieces = re.split(r" ([+-]) ", text)
        chunks: list[tuple[int, str]] = [(first_sign, pieces[0])]
        for op, chunk in zip(pieces[1::2], pieces[2::2]):
            chunks.append((1 if op == "+" else -1, chunk))

        terms: dict[Monomial, Fraction] = {}
        for sgn, chunk in chunks:
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"malformed polynomial text: {text!r}")
            coef = Fraction(1)
            mono = [0, 0, 0, 0]
            for factor in chunk.split("*"):
                factor = factor.strip()
                if "^" in factor:
                    name, _, exp = factor.partition("^")
                    mono[SYMBOLS.index(name)] += int(exp)
                elif factor in SYMBOLS:
                    mono[SYMBOLS.index(factor)] += 1
                else:
                    coef *= Fraction(factor)
            key = tuple(mono)
            terms[key] = terms.get(key, Fraction(0)) + sgn * coef  # type: ignore[index]
        return cls(terms)

    def __repr__(self):
        return f"ConstPoly({self.to_text()})"

    def __str__(self):
        return self.to_text()


ZERO = ConstPoly()
GAMMA = ConstPoly.symbol("g")
LN2 = ConstPoly.symbol("l2")
ZETA2 = ConstPoly.symbol("z2")
ZETA3 = ConstPoly.symbol("z3")


"""Exact polynomial ring over the constants gamma, ln2, zeta(2), zeta(3).

Every closed-form quantity in this package (polygamma values at integer and
half-integer arguments, entropy cumulants, summation-identity residuals) lives
in Q[g, l2, z2, z3], the ring of polynomials with rational coefficients in

    g  = Euler-Mascheroni constant
    l2 = ln 2
    z2 = zeta(2)
    z3 = zeta(3)

A polynomial is stored as integer numerators over one positive integer
denominator, in lowest terms: the denominator shares no factor with every
numerator at once, and zero has denominator 1.  So all arithmetic is exact,
a product is integer products and one gcd reduction, a sum is one lcm and
integer sums, and a quantity is zero iff it has no terms.  `fractions.Fraction`
appears only at the boundary: the constructor and `const` take Fractions,
and `terms`, `evalf` and the text form give them back.  zeta(2) is kept
opaque (never rewritten as pi^2/6) so that identity residuals cancel symbol
by symbol; pi enters only when a polynomial is evaluated numerically.

Equality of polynomials is structural.  Treating `is_zero` as a proof of a
numeric identity additionally assumes the four constants are algebraically
independent over Q, which is unproven; all identities checked here cancel
structurally, so nothing rests on that assumption in practice.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

if TYPE_CHECKING:
    import mpmath

#: symbol order used for exponent tuples
SYMBOLS = ("g", "l2", "z2", "z3")

Monomial = tuple[int, int, int, int]

_ZERO_MONO: Monomial = (0, 0, 0, 0)

Scalar = Union[int, Fraction]


def _scalar(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction coefficient, got {type(value).__name__}")


@contextmanager
def _unlimited_int_text():
    """Lift Python's int/str digit limit (3.10.7+) for one block, then restore
    it: exact coefficients outgrow 4300 digits from (48,96) on."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class ConstPoly:
    """Immutable multivariate polynomial in (g, l2, z2, z3) over Q."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        parts: dict[Monomial, tuple[int, int]] = {}
        if terms:
            for mono, coef in terms.items():
                p, q = _scalar(coef)
                if p:
                    parts[tuple(mono)] = (p, q)  # type: ignore[index]
        # each coefficient is in lowest terms, so over the lcm of their
        # denominators the numerators already share no common factor with it
        den = math.lcm(*(q for _, q in parts.values()))
        self._num = {m: p * (den // q) for m, (p, q) in parts.items()}
        self._den = den

    @classmethod
    def _make(cls, num: dict[Monomial, int], den: int) -> "ConstPoly":
        """Wrap nonzero numerators over `den` > 0, already in lowest terms."""
        poly = object.__new__(cls)
        poly._num = num
        poly._den = den if num else 1
        return poly

    @classmethod
    def _reduced(cls, num: dict[Monomial, int], den: int) -> "ConstPoly":
        """Wrap nonzero numerators over `den` > 0, divided by their common gcd."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        return cls._make(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "ConstPoly":
        p, q = _scalar(value)
        return cls._make({_ZERO_MONO: p} if p else {}, q)

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        den = self._den
        return {m: Fraction(c, den) for m, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def total_degree(self) -> int:
        return max((sum(m) for m in self._num), default=0)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other) -> "ConstPoly":
        if isinstance(other, ConstPoly):
            o_num, o_den = other._num, other._den
        else:
            p, o_den = _scalar(other)
            o_num = {_ZERO_MONO: p} if p else {}
        den = math.lcm(self._den, o_den)
        scale, o_scale = den // self._den, den // o_den
        out = {m: c * scale for m, c in self._num.items()}
        for mono, coef in o_num.items():
            new = out.get(mono, 0) + coef * o_scale
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return ConstPoly._reduced(out, den)

    __radd__ = __add__

    def __neg__(self) -> "ConstPoly":
        return ConstPoly._make({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "ConstPoly":
        return self + (-other)

    def __rsub__(self, other) -> "ConstPoly":
        return -self + other

    def __mul__(self, other) -> "ConstPoly":
        if not isinstance(other, ConstPoly):
            p, q = _scalar(other)
            if not p:
                return ConstPoly._make({}, 1)
            return ConstPoly._reduced({m: c * p for m, c in self._num.items()}, self._den * q)
        out: dict[Monomial, int] = {}
        for m1, c1 in self._num.items():
            for m2, c2 in other._num.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return ConstPoly._reduced(out, self._den * other._den)

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
        # the lowest-terms form is canonical, so equal values have equal parts
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    # -- numeric evaluation ---------------------------------------------------

    def evalf(self, precision: int = 30) -> mpmath.mpf:
        """Evaluate at `precision` decimal digits; requires precision >= 15."""
        # imported here, the only use of mpmath in the exact layer, so that
        # importing the ring does not load it
        import mpmath

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
            for mono, coef in self.terms.items():
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
        if not self._num:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]), reverse=True)
        chunks: list[str] = []
        with _unlimited_int_text():
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
        with _unlimited_int_text():
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
GAMMA = ConstPoly._make({(1, 0, 0, 0): 1}, 1)
LN2 = ConstPoly._make({(0, 1, 0, 0): 1}, 1)
ZETA2 = ConstPoly._make({(0, 0, 1, 0): 1}, 1)
ZETA3 = ConstPoly._make({(0, 0, 0, 1): 1}, 1)


"""Polygamma functions psi_k (k = 0, 1, 2) at positive half-integer arguments.

``psi_exact`` returns an element of the constant ring for integer or
half-odd-integer arguments, given as ints or Fractions like the half-integers
of ``EnsembleDims``; ``HalfInteger.of`` parses an argument into twice its
value.  With x = twice/2 and start = 2 (x an integer)
or start = 1 (x a half-odd integer), the shift recurrence
psi_k(z+1) = psi_k(z) + (-1)^k k! / z^(k+1), summed from z = start/2, gives

    psi_k(x) = psi_k(start/2)
               + (-1)^k k! sum_{j = start, start+2, ..., twice-2} 2^(k+1)/j^(k+1)

from six start values:

    psi_0(1) = -g          psi_0(1/2) = -g - 2*l2
    psi_1(1) = z2          psi_1(1/2) = 3*z2
    psi_2(1) = -2*z3       psi_2(1/2) = -14*z3

Orders k >= 3 are deliberately unsupported; nothing in this package needs
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .ring import GAMMA, LN2, ZETA2, ZETA3, ConstPoly


@dataclass(frozen=True)
class HalfInteger:
    """A psi_exact argument, an element of (1/2)Z, stored as twice its value."""

    twice: int

    @classmethod
    def of(cls, value: Union["HalfInteger", int, Fraction]) -> "HalfInteger":
        if isinstance(value, HalfInteger):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return cls(2 * value.numerator)
            if value.denominator == 2:
                return cls(value.numerator)
            raise ValueError(f"{value} is not an integer or half-integer")
        raise TypeError(f"cannot interpret {value!r} as a half-integer")


# (order, start) -> psi_order(start / 2)
_START = {
    (0, 2): -GAMMA,
    (1, 2): ZETA2,
    (2, 2): -2 * ZETA3,
    (0, 1): -GAMMA - 2 * LN2,
    (1, 1): 3 * ZETA2,
    (2, 1): -14 * ZETA3,
}

_cache: dict[tuple[int, int], ConstPoly] = {}


def psi_exact(order: int, arg) -> ConstPoly:
    """Exact psi_order at a positive integer or half-integer argument."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    h = HalfInteger.of(arg)
    if h.twice <= 0:
        raise ValueError(f"polygamma argument must be positive, got {Fraction(h.twice, 2)}")
    key = (order, h.twice)
    cached = _cache.get(key)
    if cached is not None:
        return cached

    start = 2 - h.twice % 2
    power = order + 1
    partial = sum((Fraction(1, j ** power) for j in range(start, h.twice - 1, 2)), Fraction(0))
    poly = _START[order, start] + (-1) ** order * math.factorial(order) * 2 ** power * partial
    _cache[key] = poly
    return poly

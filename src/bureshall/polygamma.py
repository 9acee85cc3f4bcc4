"""Polygamma functions psi_k (k = 0, 1, 2) at positive half-integer arguments.

``psi_exact`` returns an element of the constant ring for integer or
half-odd-integer arguments, using the finite-sum representations

    psi_0(l)       = -g + sum_{i<l} 1/i
    psi_k(l)       = (-1)^(k+1) k! (zeta(k+1) - sum_{i<l} 1/i^(k+1))
    psi_0(l+1/2)   = -g - 2*l2 + 2 sum_{i<l} 1/(2i+1)
    psi_k(l+1/2)   = (-1)^(k+1) k! ((2^(k+1)-1) zeta(k+1)
                                    - sum_{i<l} 2^(k+1)/(2i+1)^(k+1))

Orders k >= 3 are deliberately unsupported; nothing in this package needs
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .ring import GAMMA, LN2, ZETA2, ZETA3, ConstPoly


@dataclass(frozen=True, order=True)
class HalfInteger:
    """An element of (1/2)Z, stored as twice its value."""

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

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __add__(self, other) -> "HalfInteger":
        return HalfInteger(self.twice + HalfInteger.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInteger":
        return HalfInteger(self.twice - HalfInteger.of(other).twice)

    def __rsub__(self, other) -> "HalfInteger":
        return HalfInteger(HalfInteger.of(other).twice - self.twice)

    def __float__(self) -> float:
        return self.twice / 2

    def __str__(self) -> str:
        return str(self.as_fraction())


_ZETA = {2: ZETA2, 3: ZETA3}

_cache: dict[tuple[int, int], ConstPoly] = {}


def psi_exact(order: int, arg) -> ConstPoly:
    """Exact psi_order at a positive integer or half-integer argument."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    h = HalfInteger.of(arg)
    if h.twice <= 0:
        raise ValueError(f"polygamma argument must be positive, got {h.as_fraction()}")
    key = (order, h.twice)
    cached = _cache.get(key)
    if cached is not None:
        return cached

    if h.is_integer:
        l = h.twice // 2
        if order == 0:
            acc = sum((Fraction(1, i) for i in range(1, l)), Fraction(0))
            poly = -GAMMA + ConstPoly.const(acc)
        else:
            k = order
            partial = sum((Fraction(1, i ** (k + 1)) for i in range(1, l)), Fraction(0))
            sign = 1 if k % 2 else -1
            poly = sign * math.factorial(k) * (_ZETA[k + 1] - ConstPoly.const(partial))
    else:
        l = (h.twice - 1) // 2  # arg = l + 1/2
        if order == 0:
            acc = sum((Fraction(2, 2 * i + 1) for i in range(l)), Fraction(0))
            poly = -GAMMA - 2 * LN2 + ConstPoly.const(acc)
        else:
            k = order
            scale = 2 ** (k + 1)
            partial = sum(
                (Fraction(scale, (2 * i + 1) ** (k + 1)) for i in range(l)), Fraction(0)
            )
            sign = 1 if k % 2 else -1
            poly = sign * math.factorial(k) * ((scale - 1) * _ZETA[k + 1] - ConstPoly.const(partial))

    _cache[key] = poly
    return poly


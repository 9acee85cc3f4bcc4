"""Polygamma functions psi_k (k = 0, 1, 2) at positive half-integer arguments,
exactly (psi_exact) and numerically (psi_numeric).

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
them.  ``psi_exact`` parses its argument on every call and looks the value
up in a per-process ``functools.lru_cache`` keyed by the ints (order,
twice), so a hit hashes no Fraction; the cache keeps no exceptions, so a
rejected input raises every time.  The start values, and with them the
constant ring, are built on the first ``psi_exact`` call, so that a process
that never evaluates exactly does not load ``ring``.

``psi_numeric`` takes the same arguments and costs well under a millisecond
below x = 10^20, where the exact sums grow like lcm(1..x)^(k+1).  It shifts x up
to z >= _SHIFT_TO with the same recurrence and sums the asymptotic series
(DLMF 5.11.2, 5.15.8)

    psi_k(z) ~ (-1)^(k-1) [ (k-1)!/z^k + k!/(2 z^(k+1))
                            + sum_{j>=1} B_2j (2j+k-1)!/(2j)! / z^(2j+k) ]

with (k-1)!/z^k read as -ln z for k = 0, in the stdlib decimal module at
_DIGITS digits, or more for larger x, so that the numeric tier loads no
mpmath.  Its values at 1
and 1/2 also supply the ring's four constants, at which ``ConstPoly.evalf``
evaluates (see ``ring``).
"""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    from .ring import ConstPoly


class HalfInteger(NamedTuple):
    """A psi_exact argument, an element of (1/2)Z, stored as twice its value.

    The package itself passes ints and Fractions.  This record and `of` stay
    for the benchmark's tracer (perfbench/trace_child.py), which keys each
    psi_exact call by `HalfInteger.of(arg).twice` to count repeated
    arguments; they are not API that only tests use."""

    twice: int

    @classmethod
    def of(cls, value: Union[int, Fraction]) -> HalfInteger:
        return cls(_twice(value))


def _twice(value: Union[int, Fraction]) -> int:
    """Twice an integer or half-integer value."""
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return 2 * value.numerator
        if value.denominator == 2:
            return value.numerator
        raise ValueError(f"{value} is not an integer or half-integer")
    raise TypeError(f"cannot interpret {value!r} as a half-integer")


@functools.lru_cache(maxsize=None)
def _start() -> dict[tuple[int, int], ConstPoly]:
    """(order, start) -> psi_order(start / 2), built on first use."""
    from .ring import GAMMA, LN2, ZETA2, ZETA3

    return {
        (0, 2): -GAMMA,
        (1, 2): ZETA2,
        (2, 2): -2 * ZETA3,
        (0, 1): -GAMMA - 2 * LN2,
        (1, 1): 3 * ZETA2,
        (2, 1): -14 * ZETA3,
    }


def _parse(order: int, arg) -> int:
    """Twice the argument of psi_order; rejects an order other than 0, 1, 2
    and an argument that is not positive."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    twice = _twice(arg)
    if twice <= 0:
        raise ValueError(f"polygamma argument must be positive, got {Fraction(twice, 2)}")
    return twice


def psi_exact(order: int, arg) -> ConstPoly:
    """Exact psi_order at a positive integer or half-integer argument; every
    argument of equal value shares one cache entry."""
    return _psi_exact(order, _parse(order, arg))


@functools.lru_cache(maxsize=None)
def _psi_exact(order: int, twice: int) -> ConstPoly:
    start = 2 - twice % 2
    power = order + 1
    partial = sum((Fraction(1, j ** power) for j in range(start, twice - 1, 2)), Fraction(0))
    return _start()[order, start] + (-1) ** order * math.factorial(order) * 2 ** power * partial


#: decimal digits of psi_numeric's arithmetic, 20 above cumulants._DPS, while
#: twice its argument has at most 20 digits
_DIGITS = 60
_CONTEXT = Context(prec=_DIGITS)
#: psi_numeric shifts its argument up to at least this before the series
_SHIFT_TO = 40
#: series coefficients kept: at x >= _SHIFT_TO, the first one left out is
#: below 10^-62 of psi_k(x) for k = 0, 1, 2
_TERMS = 31


@functools.lru_cache(maxsize=None)
def _series() -> tuple[tuple[Decimal, ...], ...]:
    """For k = 0, 1, 2, the coefficients B_2j (2j + k - 1)! / (2j)!,
    j = 1.._TERMS, of the asymptotic series of psi_k.  The Bernoulli numbers
    come from the tangent numbers T_j in integer arithmetic (Brent and Harvey,
    "Fast computation of Bernoulli, tangent and secant numbers", 2013):
    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1))."""
    t = [0, 1] + [0] * (_TERMS - 1)
    for k in range(2, _TERMS + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, _TERMS + 1):
        for j in range(k, _TERMS + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    with localcontext(_CONTEXT):
        b = [Decimal((-1) ** (j - 1) * 2 * j * t[j]) / (4 ** j * (4 ** j - 1))
             for j in range(1, _TERMS + 1)]
        return tuple(
            tuple(c * math.factorial(2 * j + k - 1) / math.factorial(2 * j)
                  for j, c in enumerate(b, 1))
            for k in (0, 1, 2)
        )


def psi_numeric(order: int, arg) -> Fraction:
    """psi_order at a positive integer or half-integer argument, as the
    Fraction of a Decimal with a relative error of about 10^-57 at most;
    arguments are parsed and rejected as by psi_exact.  The Decimal has
    _DIGITS digits, plus one for each digit of twice the argument past 20:
    the cumulants' closed forms cancel about that many leading digits."""
    twice = _parse(order, arg)
    power = order + 1
    shift = max(0, (2 * _SHIFT_TO - twice + 1) // 2)
    digits = Decimal(twice).adjusted() + 1
    with localcontext(Context(prec=_DIGITS + max(0, digits - 20))):
        x = Decimal(twice) / 2
        z = x + shift
        y = 1 / (z * z)
        series, p = Decimal(0), Decimal(1)
        for c in _series()[order]:
            p *= y
            term = c * p
            if series + term == series:
                break
            series += term
        if order == 0:
            lead = -z.ln()
        else:
            lead = math.factorial(order - 1) / z ** order
            series /= z ** order
        tail = sum((1 / (x + i) ** power for i in range(shift)), Decimal(0))
        # psi_k(x) = psi_k(z) + (-1)^(k-1) k! tail: the tail joins the series' bracket
        total = lead + math.factorial(order) * (1 / (2 * z ** power) + tail) + series
        return Fraction(total if order % 2 else -total)

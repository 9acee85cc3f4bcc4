"""Closed-form entropy cumulants over the Bures-Hall ensemble.

For subsystem dimensions m <= n, with alpha = n - m - 1/2 and
d = m(m + 2*alpha + 1)/2 = m*n - m^2/2, the first three cumulants of the von
Neumann entropy S are

    kappa1 = psi0(d + 1) - psi0(n + 1/2)
    kappa2 = -psi1(d + 1) + (2n(2n+m) - m^2 + 1) / (2n(2mn - m^2 + 2))
             * psi1(n + 1/2)
    kappa3 = psi2(d + 1) + a1 * psi2(n + 1/2) + a2 * psi1(n + 1/2)

with a1, a2 rational in (m, n).  The companion unconstrained ensemble (trace
not fixed to 1) has entropy T = sum x_i ln x_i whose third cumulant kappa3_T
is also in closed form.

EnsembleDims gives the half-integers alpha, d and n + 1/2 as Fractions.  Each
closed form is stated once, in _kappa, and evaluated with either polygamma:
kappa1..kappa3 use psi_exact and return exact elements of the constant ring,
whose cost grows like lcm(1..d)^3 through the polygamma partial sums;
cumulant_set and third_moment_conversion use psi_numeric, whose values are
Fractions of 60-digit decimals: the closed forms combine them exactly and
round once, in under a millisecond at any (m, n) and without mpmath.

The trace factorization T = theta ln theta - theta S, with theta ~ Gamma(d)
independent of S, is likewise stated once, in _trace_moment: it gives the
exact moments of T from kappa1..kappa3 (unconstrained_moments), against which
the closed form kappa3_T is checked at every (m, n), and, solved for E_f[S^3],
the third-moment conversion.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .polygamma import psi_exact, psi_numeric

if TYPE_CHECKING:
    from .ring import ConstPoly


#: decimal digits at which cumulant_set takes sd, skewness and the skew
#: coefficient before rounding to floats
_DPS = 40


class DegenerateEnsembleError(ValueError):
    """Raised for m = 1, where S is identically zero."""


class _Dims(NamedTuple):
    m: int
    n: int


class EnsembleDims(_Dims):
    """Subsystem dimensions (m, n) with m <= n, validated on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("dimensions must be integers")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)

    @property
    def alpha(self) -> Fraction:
        return Fraction(2 * (self.n - self.m) - 1, 2)

    @property
    def d(self) -> Fraction:
        # m*n - m^2/2, the shape of the Gamma law of the unconstrained trace
        return Fraction(self.m * (2 * self.n - self.m), 2)

    @property
    def n_half(self) -> Fraction:
        return Fraction(2 * self.n + 1, 2)


def _kappa(order: int, dims: EnsembleDims, psi):
    """kappa_order (1, 2 or 3) from its closed form, with psi(k, x) either
    psi_exact (an element of the ring) or psi_numeric (a Fraction)."""
    m, n = dims.m, dims.n
    top, half = dims.d + 1, dims.n_half
    if order == 1:
        return psi(0, top) - psi(0, half)
    if order == 2:
        coef = Fraction(2 * n * (2 * n + m) - m * m + 1, 2 * n * (2 * m * n - m * m + 2))
        return -psi(1, top) + coef * psi(1, half)
    q = 2 * m * n - m * m
    a1 = Fraction(4 * m * m - 8 * m * n - 4 * n * n - 7, (q + 2) * (q + 4))
    a2 = Fraction(
        2 * (m * m - 1) * ((m - 2 * n) ** 2 - 1) * (-2 * m * m + 4 * m * n - 12 * n * n + 7),
        n * (q + 2) ** 2 * (q + 4) * (4 * n * n - 1),
    )
    return psi(2, top) + a1 * psi(2, half) + a2 * psi(1, half)


def kappa1(dims: EnsembleDims) -> ConstPoly:
    """Mean of S: psi0(d+1) - psi0(n + 1/2)."""
    return _kappa(1, dims, psi_exact)


def kappa2(dims: EnsembleDims) -> ConstPoly:
    """Variance of S."""
    return _kappa(2, dims, psi_exact)


def kappa3(dims: EnsembleDims) -> ConstPoly:
    """Third cumulant of S."""
    return _kappa(3, dims, psi_exact)


def kappa3_unconstrained(dims: EnsembleDims) -> ConstPoly:
    """Third cumulant of T = sum x_i ln x_i over the unconstrained ensemble:
    m(2n - m) times a cubic in psi0, psi1, psi2 at n + 1/2.  It equals kappa3
    of unconstrained_moments(dims) exactly."""
    m, n = dims.m, dims.n
    b1 = Fraction(-4 * m * m + 8 * m * n + 4 * n * n + 7, 8)
    b2 = Fraction(3 * (-m * m + 2 * m * n + 4 * n * n + 1), 4 * n)
    b3 = Fraction(
        -(m ** 4) + 4 * m ** 3 * n - 16 * m * m * n * n + 5 * m * m + 24 * m * n ** 3
        - 10 * m * n + 24 * n ** 4 + 10 * n * n - 4,
        2 * n * (2 * n - 1) * (2 * n + 1),
    )
    p0, p1, p2 = (psi_exact(k, dims.n_half) for k in (0, 1, 2))
    inner = b1 * p2 + b2 * p0 * p1 + b3 * p1 + p0 ** 3 + Fraction(9, 2) * p0 ** 2 + 3 * p0
    return m * (2 * n - m) * inner


class CumulantSet(NamedTuple):
    """Floating forms of the first three cumulants of S.

    The floats all come from one evaluation of the closed forms with
    psi_numeric; the ratios are taken at _DPS digits before rounding.  sd,
    skewness and skew_coefficient (the Hermite-correction coefficient
    kappa3 / (6 kappa2^(3/2))) are None for m = 1, where S is identically 0.
    The exact polynomials are kappa1(dims), kappa2(dims) and kappa3(dims).
    """

    kappa1_f: float
    kappa2_f: float
    kappa3_f: float
    skewness: Optional[float]
    sd: Optional[float]
    skew_coefficient: Optional[float]


def _numeric_psi():
    """psi_numeric behind a cache for one evaluation, which calls it with
    each argument once: kappa2 and kappa3 share psi1(n + 1/2).  A cache per
    evaluation holds nothing after it."""
    return lru_cache(maxsize=None)(psi_numeric)


def cumulant_set(dims: EnsembleDims) -> CumulantSet:
    psi = _numeric_psi()
    v1, v2, v3 = (_kappa(order, dims, psi) for order in (1, 2, 3))
    sd = skew = coef = None
    if dims.m >= 2:
        with localcontext(Context(prec=_DPS)):
            k2 = Decimal(v2.numerator) / v2.denominator
            k3 = Decimal(v3.numerator) / v3.denominator
            root = k2.sqrt()
            scale = k2 * root
            sd, skew, coef = float(root), float(k3 / scale), float(k3 / (6 * scale))
    return CumulantSet(
        kappa1_f=float(v1),
        kappa2_f=float(v2),
        kappa3_f=float(v3),
        skewness=skew,
        sd=sd,
        skew_coefficient=coef,
    )


def _nondegenerate_set(dims: EnsembleDims) -> CumulantSet:
    """cumulant_set(dims) for the quantities that divide by kappa2 (m >= 2)."""
    if dims.m < 2:
        raise DegenerateEnsembleError("S is identically 0 for m = 1")
    return cumulant_set(dims)


def skewness(dims: EnsembleDims) -> float:
    """kappa3 / kappa2^(3/2), evaluated at high precision before dividing."""
    return _nondegenerate_set(dims).skewness


def moments_cumulants_convert(values: Sequence, direction: str) -> tuple:
    """Convert between raw moments (mu1, mu2, mu3) and cumulants (k1, k2, k3).

    Works on anything with ring arithmetic (floats, Fractions, ConstPoly).
    direction is 'moments_to_cumulants' or 'cumulants_to_moments'.
    """
    if len(values) != 3:
        raise ValueError("expected exactly three values")
    a, b, c = values
    if direction == "moments_to_cumulants":
        return (a, b - a * a, c - 3 * b * a + 2 * a * a * a)
    if direction == "cumulants_to_moments":
        return (a, b + a * a, c + 3 * b * a + a * a * a)
    raise ValueError(f"unknown direction {direction!r}")


def _log_moment(k: int, s, psi):
    """E[(ln Y)^k] for Y ~ Gamma(s) and k = 0..3: the complete Bell
    polynomial in the cumulants psi0(s), psi1(s), psi2(s) of ln Y, with psi
    as in _kappa."""
    if k == 0:
        return 1
    p0 = psi(0, s)
    if k == 1:
        return p0
    if k == 2:
        return p0 ** 2 + psi(1, s)
    return p0 ** 3 + 3 * p0 * psi(1, s) + psi(2, s)


def _trace_moment(k: int, d: Fraction, es: Sequence, psi):
    """E_h[T^k] for T = theta ln theta - theta S with theta ~ Gamma(d)
    independent of S, given es = (1, E_f[S], ..., E_f[S^k]):

        E_h[T^k] = (d)_k sum_{j=0..k} C(k, j) (-1)^j E[(ln Y)^(k-j)] E_f[S^j]

    with Y ~ Gamma(d + k), since E[theta^k g(theta)] = (d)_k E[g(Y)]; psi as
    in _kappa."""
    total = sum(math.comb(k, j) * (-1) ** j * _log_moment(k - j, d + k, psi) * es[j]
                for j in range(k + 1))
    return math.prod(d + i for i in range(k)) * total


def unconstrained_moments(dims: EnsembleDims) -> tuple[ConstPoly, ConstPoly, ConstPoly]:
    """Exact E_h[T], E_h[T^2], E_h[T^3] over the unconstrained ensemble, from
    kappa1..kappa3 through the trace factorization."""
    es = (1,) + moments_cumulants_convert(
        (kappa1(dims), kappa2(dims), kappa3(dims)), "cumulants_to_moments")
    return tuple(_trace_moment(k, dims.d, es, psi_exact) for k in (1, 2, 3))


def third_moment_conversion(e_h_t3: float, dims: EnsembleDims) -> float:
    """Map E_h[T^3] over the unconstrained ensemble to E_f[S^3].

    The trace factorization at k = 3 holds E_f[S^3] with the coefficient
    -(d)_3, so E_f[S^3] = (F - E_h[T^3]) / (d)_3, where F is the
    factorization with E_f[S^3] := 0.  E_f[S] = kappa1 and
    E_f[S^2] = kappa2 + kappa1^2 come from the closed forms, all evaluated
    with psi_numeric and combined exactly before the one rounding to float.
    """
    d = dims.d
    psi = _numeric_psi()
    v1, v2 = (_kappa(order, dims, psi) for order in (1, 2))
    rest = _trace_moment(3, d, (1, v1, v2 + v1 ** 2, 0), psi)
    return float((rest - Fraction(e_h_t3)) / (d * (d + 1) * (d + 2)))

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
cumulant_set uses mpmath.psi at _DPS digits, which takes about a millisecond
at any (m, n).  The Gamma-law log-moments behind the m = 1 oracle and the
third-moment conversion are likewise stated once, in _log_moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from .polygamma import psi_exact
from .ring import ConstPoly


#: decimal digits of every numeric evaluation of the exact forms
_DPS = 40


class DegenerateEnsembleError(ValueError):
    """Raised for m = 1, where S is identically zero."""


@dataclass(frozen=True)
class EnsembleDims:
    """Subsystem dimensions (m, n) with m <= n."""

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("dimensions must be integers")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")

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
    psi_exact (an element of the ring) or mpmath.psi (a number)."""
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


def _log_moment(k: int, s, psi):
    """E[(ln Y)^k] for Y ~ Gamma(s) and k = 1, 2, 3: the complete Bell
    polynomial in the cumulants psi0(s), psi1(s), psi2(s) of ln Y, with psi
    as in _kappa."""
    p0 = psi(0, s)
    if k == 1:
        return p0
    if k == 2:
        return p0 ** 2 + psi(1, s)
    return p0 ** 3 + 3 * p0 * psi(1, s) + psi(2, s)


def kappa3_unconstrained(dims: EnsembleDims) -> ConstPoly:
    """Third cumulant of T = sum x_i ln x_i over the unconstrained ensemble."""
    m, n = dims.m, dims.n
    b1 = Fraction(-4 * m * m + 8 * m * n + 4 * n * n + 7, 8)
    b2 = Fraction(3 * (-m * m + 2 * m * n + 4 * n * n + 1), 4 * n)
    b3 = Fraction(
        -(m ** 4)
        - 16 * m * m * n * n
        + 4 * m * m * n
        + 5 * m * m
        + 24 * m * n ** 3
        - 10 * m * n
        + 24 * n ** 4
        + 10 * n * n
        - 4,
        2 * n * (2 * n - 1) * (2 * n + 1),
    )
    p0 = psi_exact(0, dims.n_half)
    p1 = psi_exact(1, dims.n_half)
    p2 = psi_exact(2, dims.n_half)
    inner = (
        b1 * p2
        + b2 * p0 * p1
        + b3 * p1
        + p0 ** 3
        + Fraction(9, 2) * p0 ** 2
        + 3 * p0
    )
    return m * (2 * n - m) * inner


def _numeric_cumulants(dims: EnsembleDims) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """kappa1, kappa2, kappa3 at the working precision, from mpmath.psi on
    the closed forms; call inside mpmath.workdps(_DPS)."""
    return tuple(_kappa(order, dims, mpmath.psi) for order in (1, 2, 3))


@dataclass(frozen=True)
class CumulantSet:
    """Floating forms of the first three cumulants of S.

    The floats all come from one evaluation of the closed forms at _DPS
    digits; the ratios are taken at that precision before rounding.  sd,
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


def cumulant_set(dims: EnsembleDims) -> CumulantSet:
    sd = skew = coef = None
    with mpmath.workdps(_DPS):
        v1, v2, v3 = _numeric_cumulants(dims)
        if dims.m >= 2:
            scale = v2 ** mpmath.mpf("1.5")
            sd, skew, coef = float(mpmath.sqrt(v2)), float(v3 / scale), float(v3 / (6 * scale))
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


def third_moment_conversion(e_h_t3: float, dims: EnsembleDims) -> float:
    """Map E_h[T^3] over the unconstrained ensemble to E_f[S^3].

    E_f[S^3] = -E_h[T^3]/(d)_3 + 3 psi0(d+3) E_f[S^2]
               - 3 (psi0^2 + psi1)(d+3) E_f[S]
               + (psi0^3 + 3 psi0 psi1 + psi2)(d+3)

    with (d)_3 = d(d+1)(d+2).  E_f[S] = kappa1 and E_f[S^2] = kappa2 + kappa1^2
    come from the closed forms, all evaluated at _DPS digits.
    """
    d = dims.d
    poch3 = d * (d + 1) * (d + 2)
    with mpmath.workdps(_DPS):
        v1, v2, _ = _numeric_cumulants(dims)
        es1, es2 = v1, v2 + v1 ** 2
        value = (
            -mpmath.mpf(e_h_t3) / poch3
            + 3 * _log_moment(1, d + 3, mpmath.psi) * es2
            - 3 * _log_moment(2, d + 3, mpmath.psi) * es1
            + _log_moment(3, d + 3, mpmath.psi)
        )
        return float(value)


def single_eigenvalue_entropy_moments(dims: EnsembleDims) -> tuple[ConstPoly, ConstPoly, ConstPoly]:
    """Exact E_h[T], E_h[T^2], E_h[T^3] for m = 1.

    At m = 1 the unconstrained ensemble is a Gamma(d) law for the single
    eigenvalue x, and E[(x ln x)^k] = (d)_k E[(ln Y)^k] with Y ~ Gamma(d + k):

        E[T]   = (d)_1 psi0(d+1)
        E[T^2] = (d)_2 (psi0^2 + psi1)(d+2)
        E[T^3] = (d)_3 (psi0^3 + 3 psi0 psi1 + psi2)(d+3)
    """
    if dims.m != 1:
        raise ValueError("the Gamma-law moment oracle applies only to m = 1")
    d = dims.d
    return (
        d * _log_moment(1, d + 1, psi_exact),
        d * (d + 1) * _log_moment(2, d + 2, psi_exact),
        d * (d + 1) * (d + 2) * _log_moment(3, d + 3, psi_exact),
    )

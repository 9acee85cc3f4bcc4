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

kappa1..kappa3 return exact elements of the constant ring; their cost grows
like lcm(1..d)^3 through the polygamma partial sums.  cumulant_set evaluates
the same closed forms numerically with mpmath.psi at _DPS digits, which
takes about a millisecond at any (m, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from .polygamma import HalfInteger, psi_exact
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
    def alpha(self) -> HalfInteger:
        return HalfInteger(2 * (self.n - self.m) - 1)

    @property
    def d(self) -> HalfInteger:
        # m*n - m^2/2, the shape of the Gamma law of the unconstrained trace
        return HalfInteger(self.m * (2 * self.n - self.m))

    @property
    def n_half(self) -> HalfInteger:
        return HalfInteger(2 * self.n + 1)


def kappa1(dims: EnsembleDims) -> ConstPoly:
    """Mean of S: psi0(d+1) - psi0(n + 1/2)."""
    return psi_exact(0, dims.d + 1) - psi_exact(0, dims.n_half)


def kappa2(dims: EnsembleDims) -> ConstPoly:
    """Variance of S."""
    coef = _kappa2_coeff(dims.m, dims.n)
    return -psi_exact(1, dims.d + 1) + ConstPoly.const(coef) * psi_exact(1, dims.n_half)


def _kappa2_coeff(m: int, n: int) -> Fraction:
    return Fraction(2 * n * (2 * n + m) - m * m + 1, 2 * n * (2 * m * n - m * m + 2))


def _kappa3_coeffs(m: int, n: int) -> tuple[Fraction, Fraction]:
    q = 2 * m * n - m * m
    a1 = Fraction(4 * m * m - 8 * m * n - 4 * n * n - 7, (q + 2) * (q + 4))
    a2 = Fraction(
        2 * (m * m - 1) * ((m - 2 * n) ** 2 - 1) * (-2 * m * m + 4 * m * n - 12 * n * n + 7),
        n * (q + 2) ** 2 * (q + 4) * (4 * n * n - 1),
    )
    return a1, a2


def kappa3(dims: EnsembleDims) -> ConstPoly:
    """Third cumulant of S."""
    a1, a2 = _kappa3_coeffs(dims.m, dims.n)
    return (
        psi_exact(2, dims.d + 1)
        + ConstPoly.const(a1) * psi_exact(2, dims.n_half)
        + ConstPoly.const(a2) * psi_exact(1, dims.n_half)
    )


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
        ConstPoly.const(b1) * p2
        + ConstPoly.const(b2) * p0 * p1
        + ConstPoly.const(b3) * p1
        + p0 ** 3
        + ConstPoly.const(Fraction(9, 2)) * p0 ** 2
        + 3 * p0
    )
    return m * (2 * n - m) * inner


def _mpf(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


def _numeric_cumulants(dims: EnsembleDims) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """kappa1, kappa2, kappa3 at the working precision, from mpmath.psi on
    the closed forms; call inside mpmath.workdps(_DPS)."""
    a1, a2 = _kappa3_coeffs(dims.m, dims.n)
    top, half = _mpf(dims.d.as_fraction()) + 1, _mpf(dims.n_half.as_fraction())
    p0, p1, p2 = (mpmath.psi(k, top) for k in (0, 1, 2))
    h0, h1, h2 = (mpmath.psi(k, half) for k in (0, 1, 2))
    return (
        p0 - h0,
        -p1 + _mpf(_kappa2_coeff(dims.m, dims.n)) * h1,
        p2 + _mpf(a1) * h2 + _mpf(a2) * h1,
    )


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


def skewness(dims: EnsembleDims) -> float:
    """kappa3 / kappa2^(3/2), evaluated at high precision before dividing."""
    if dims.m < 2:
        raise DegenerateEnsembleError("S is identically 0 for m = 1; skewness undefined")
    return cumulant_set(dims).skewness


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
               - 3 (psi1(d+3) + psi0^2(d+3)) E_f[S]
               + psi2(d+3) + 3 psi1(d+3) psi0(d+3) + psi0^3(d+3)

    with (d)_3 = d(d+1)(d+2).  E_f[S] = kappa1 and E_f[S^2] = kappa2 + kappa1^2
    come from the closed forms, all evaluated at _DPS digits.
    """
    d = dims.d.as_fraction()
    poch3 = d * (d + 1) * (d + 2)
    with mpmath.workdps(_DPS):
        v1, v2, _ = _numeric_cumulants(dims)
        es1, es2 = v1, v2 + v1 ** 2
        p0, p1, p2 = (mpmath.psi(k, _mpf(d + 3)) for k in (0, 1, 2))
        value = (
            -mpmath.mpf(e_h_t3) * poch3.denominator / poch3.numerator
            + 3 * p0 * es2
            - 3 * (p1 + p0 ** 2) * es1
            + p2 + 3 * p1 * p0 + p0 ** 3
        )
        return float(value)


def single_eigenvalue_entropy_moments(dims: EnsembleDims) -> tuple[ConstPoly, ConstPoly, ConstPoly]:
    """Exact E_h[T], E_h[T^2], E_h[T^3] for m = 1.

    At m = 1 the unconstrained ensemble is a Gamma(d) law for the single
    eigenvalue x, and E[(x ln x)^k] is the k-th derivative of
    Gamma(d + k + t)/Gamma(d) at t = 0:

        E[T]   = (d)_1 psi0(d+1)
        E[T^2] = (d)_2 (psi0^2 + psi1)(d+2)
        E[T^3] = (d)_3 (psi0^3 + 3 psi0 psi1 + psi2)(d+3)
    """
    if dims.m != 1:
        raise ValueError("the Gamma-law moment oracle applies only to m = 1")
    d = dims.d.as_fraction()
    out = []
    poch = Fraction(1)
    for k in (1, 2, 3):
        poch *= d + k - 1
        arg = dims.d + k
        p0 = psi_exact(0, arg)
        if k == 1:
            core = p0
        elif k == 2:
            core = p0 ** 2 + psi_exact(1, arg)
        else:
            core = p0 ** 3 + 3 * p0 * psi_exact(1, arg) + psi_exact(2, arg)
        out.append(ConstPoly.const(poch) * core)
    return tuple(out)

"""Deterministic quadrature oracle for m = 2 and m = 3.

Integrates the eigenvalue density directly (after eliminating the trace
constraint) to produce entropy moments and cumulants that are independent of
both the closed-form cumulant expressions and the Monte Carlo sampler.

The density on the simplex is

    f(lambda) = (1/C) delta(1 - sum lambda_i)
                prod_{i<j} (lambda_i - lambda_j)^2 / (lambda_i + lambda_j)
                prod_i lambda_i^alpha

with normalization

    C = 2^(-m(m+2 alpha)) pi^(m/2) / Gamma(m(m+2 alpha+1)/2)
        * prod_{i=1..m} Gamma(i+1) Gamma(i+2 alpha+1) / Gamma(i+alpha+1/2).

For m = 2 the delta collapses the integral to one dimension; for m = 3 to a
two-dimensional integral over the triangle, done as nested 1-D integrals.  The
substitution lambda = sin^2 u absorbs the (lambda (1-lambda))^alpha endpoint
behaviour analytically, so the alpha = -1/2 case (n = m) has a smooth
integrand.  Each 1-D integral is double-exponential (tanh-sinh) quadrature,
`mpmath.fp.quad`, whose nodes round onto the interval ends in floating point;
the integrands therefore take their limits there, such as 0 for the pair
factor (x - y)^2 / (x + y) at x = y = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from .cumulants import EnsembleDims, moments_cumulants_convert


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True


def normalization_constant(dims: EnsembleDims) -> float:
    """The constant C of the eigenvalue density, via Gamma functions."""
    m = dims.m
    two_alpha = dims.alpha.twice  # 2*alpha, an odd integer
    with mpmath.workdps(30):
        a = mpmath.mpf(two_alpha) / 2
        c = mpmath.mpf(2) ** (-m * (m + two_alpha)) * mpmath.pi ** (mpmath.mpf(m) / 2)
        c /= mpmath.gamma(mpmath.mpf(m * (m + two_alpha + 1)) / 2)
        for i in range(1, m + 1):
            c *= mpmath.gamma(i + 1) * mpmath.gamma(i + 2 * a + 1) / mpmath.gamma(i + a + 0.5)
        return float(c)


def _entropy2(lam1: float) -> float:
    lam2 = 1.0 - lam1
    s = 0.0
    if lam1 > 0.0:
        s -= lam1 * math.log(lam1)
    if lam2 > 0.0:
        s -= lam2 * math.log(lam2)
    return s


# absolute tolerances of the moments, by m
_TOL = {2: 1e-10, 3: 1e-7}


def _quad(f, a: float, b: float, target: float) -> tuple[float, float, bool]:
    """Tanh-sinh quadrature of f over [a, b] as (value, error, converged),
    where converged means the error estimate met the absolute target."""
    value, error = mpmath.fp.quad(f, [a, b], error=True)
    return value, error, error <= target


def _pair(x: float, y: float) -> float:
    """(x - y)^2 / (x + y); its limit 0 where nodes round onto x = y = 0."""
    s = x + y
    return (x - y) ** 2 / s if s else 0.0


def _moments_m2(dims: EnsembleDims, powers: list[int]):
    """E[S^k] for m = 2 as 1-D integrals over u with lambda1 = sin^2 u."""
    c = normalization_constant(dims)
    two_alpha = dims.alpha.twice
    counter = [0]

    def make_integrand(k: int):
        def f(u: float) -> float:
            counter[0] += 1
            su, cu = math.sin(u), math.cos(u)
            lam1 = su * su
            # (2 lam1 - 1)^2 (lam1 (1-lam1))^alpha * dlam1, ordered x2
            w = (2.0 * lam1 - 1.0) ** 2 * (su * cu) ** (two_alpha + 1) * 2.0
            w *= 2.0 / c
            return w * _entropy2(lam1) ** k if k else w

        return f

    out = []
    for k in powers:
        val, err, converged = _quad(make_integrand(k), math.pi / 4, math.pi / 2, _TOL[2] / 10)
        out.append(QuadratureResult(val, max(err, 1e-16), counter[0], converged))
        counter[0] = 0
    return out


def _moments_m3(dims: EnsembleDims, powers: list[int]):
    """E[S^k] for m = 3 as nested integrals over the full triangle.

    Parametrization: lambda1 = sin^2 u, lambda2 = cos^2 u sin^2 v,
    lambda3 = cos^2 u cos^2 v with u, v in (0, pi/2).  Density weight times
    Jacobian is 4 sin^(2a+1) u cos^(4a+3) u (sin v cos v)^(2a+1) times the
    pair-interaction factor; all exponents are nonnegative integers.
    """
    c = normalization_constant(dims)
    two_alpha = dims.alpha.twice
    p_u_sin = two_alpha + 1
    p_u_cos = 2 * two_alpha + 3
    p_v = two_alpha + 1
    counter = [0]
    inner_err_max = [0.0]
    inner_converged = [True]
    half_pi = math.pi / 2

    def make_integrand(k: int):
        def outer(u: float) -> float:
            su, cu = math.sin(u), math.cos(u)
            lam1 = su * su
            rest = 1.0 - lam1
            weight = 4.0 / c * su ** p_u_sin * cu ** p_u_cos

            def inner(v: float) -> float:
                counter[0] += 1
                sv, cv = math.sin(v), math.cos(v)
                lam2 = rest * sv * sv
                lam3 = rest * cv * cv
                pair = _pair(lam1, lam2) * _pair(lam1, lam3) * _pair(lam2, lam3)
                w = weight * (sv * cv) ** p_v * pair
                if k:
                    s = 0.0
                    for lam in (lam1, lam2, lam3):
                        if lam > 0.0:
                            s -= lam * math.log(lam)
                    w *= s ** k
                return w

            val, err, converged = _quad(inner, 0.0, half_pi, _TOL[3] / 100)
            inner_err_max[0] = max(inner_err_max[0], err)
            inner_converged[0] = inner_converged[0] and converged
            return val

        return outer

    out = []
    for k in powers:
        counter[0] = 0
        inner_err_max[0] = 0.0
        inner_converged[0] = True
        val, err, converged = _quad(make_integrand(k), 0.0, half_pi, _TOL[3] / 10)
        total_err = err + half_pi * inner_err_max[0]
        out.append(QuadratureResult(val, max(total_err, 1e-16), counter[0],
                                    converged and inner_converged[0]))
    return out


def moment_oracle(dims: EnsembleDims, powers: list[int]):
    """Raw entropy moments E[S^k] for the requested powers (m in {2, 3})."""
    if dims.m == 2:
        return _moments_m2(dims, powers)
    if dims.m == 3:
        return _moments_m3(dims, powers)
    raise ValueError(f"quadrature oracle supports m in {{2, 3}}, got m={dims.m}")


def normalization_check(dims: EnsembleDims) -> QuadratureResult:
    """Total mass of the density with the exact constant C; should be 1."""
    return moment_oracle(dims, [0])[0]


def oracle_cumulants(dims: EnsembleDims) -> list[QuadratureResult]:
    """kappa_1..kappa_3 by quadrature moments plus moment-cumulant
    conversion, with first-order error propagation."""
    moments = moment_oracle(dims, [1, 2, 3])
    mu = [r.value for r in moments]
    err = [r.error_estimate for r in moments]
    evals = sum(r.evaluations for r in moments)
    converged = all(r.converged for r in moments)
    kappas = moments_cumulants_convert(tuple(mu), "moments_to_cumulants")
    errors = (
        err[0],
        err[1] + 2 * abs(mu[0]) * err[0],
        err[2] + 3 * (abs(mu[0]) * err[1] + abs(mu[1]) * err[0]) + 6 * mu[0] ** 2 * err[0],
    )
    return [QuadratureResult(k, e, evals, converged) for k, e in zip(kappas, errors)]

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

The delta is eliminated by the standard parametrization of the simplex,
u in (0, pi/2)^(m-1) with lambda_i = sin^2 u_i prod_{j<i} cos^2 u_j and
lambda_m = prod_j cos^2 u_j.  Weight times Jacobian is then

    2^(m-1)/C prod_i sin^(2 alpha+1) u_i cos^((2 alpha+2)(m-i)-1) u_i

times the pair factors; all exponents are nonnegative integers, so the
alpha = -1/2 case (n = m) has a smooth integrand.  Each u_i is one level of
nested double-exponential (tanh-sinh) quadrature, `mpmath.fp.quad`.
lambda_(m-1) and lambda_m are exchangeable, so the innermost integral covers
(0, pi/4) and is doubled.  Tanh-sinh nodes round onto the interval ends in
floating point, so the integrands take their limits there, such as 0 for the
pair factor (x - y)^2 / (x + y) at x = y = 0.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import mpmath

from .cumulants import EnsembleDims, moments_cumulants_convert


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def normalization_constant(dims: EnsembleDims) -> float:
    """The constant C of the eigenvalue density, via Gamma functions."""
    m = dims.m
    two_alpha = int(2 * dims.alpha)  # an odd integer
    with mpmath.workdps(30):
        a = mpmath.mpf(two_alpha) / 2
        c = mpmath.mpf(2) ** (-m * (m + two_alpha)) * mpmath.pi ** (mpmath.mpf(m) / 2)
        c /= mpmath.gamma(mpmath.mpf(m * (m + two_alpha + 1)) / 2)
        for i in range(1, m + 1):
            c *= mpmath.gamma(i + 1) * mpmath.gamma(i + 2 * a + 1) / mpmath.gamma(i + a + 0.5)
        return float(c)


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


def _entropy_term(lam: float) -> float:
    """-lam ln lam; its limit 0 where nodes round onto lam = 0."""
    return -lam * math.log(lam) if lam > 0.0 else 0.0


def moment_oracle(dims: EnsembleDims, powers: list[int]) -> list[QuadratureResult]:
    """Raw entropy moments E[S^k] for the requested powers (m in {2, 3}), as
    nested 1-D integrals over u_1..u_(m-1) (see the module docstring)."""
    m = dims.m
    if m not in _TOL:
        raise ValueError(f"quadrature oracle supports m in {{2, 3}}, got m={m}")
    two_alpha = int(2 * dims.alpha)
    # 2^(m-1) from the Jacobian, times 2 for the half-range innermost integral
    prefactor = 2.0 ** m / normalization_constant(dims)

    def moment(k: int) -> QuadratureResult:
        evaluations = 0

        def level(i: int, lams: tuple, rest: float, weight: float, entropy: float):
            """(value, error, converged) of the integral over u_i, given the
            fixed lambda_1..lambda_(i-1), their complement `rest` and the
            weight and entropy they contribute."""
            innermost = i == m - 1
            p_cos = (two_alpha + 2) * (m - i) - 1
            worst, inner_converged = 0.0, True

            def f(u: float) -> float:
                nonlocal evaluations, worst, inner_converged
                su, cu = math.sin(u), math.cos(u)
                lam = rest * su * su
                w = weight * su ** (two_alpha + 1) * cu ** p_cos
                for x in lams:
                    w *= _pair(x, lam)
                h = entropy + _entropy_term(lam) if k else 0.0  # the mass needs no entropy
                if innermost:
                    evaluations += 1
                    last = rest * cu * cu
                    for x in lams:
                        w *= _pair(x, last)
                    w *= _pair(lam, last)
                    return w * (h + _entropy_term(last)) ** k if k else w
                value, error, converged = level(i + 1, lams + (lam,), rest * cu * cu, w, h)
                worst = max(worst, error)
                inner_converged = inner_converged and converged
                return value

            # lambda_(m-1) and lambda_m are exchangeable: integrate half the range
            b = math.pi / 4 if innermost else math.pi / 2
            value, error, converged = _quad(f, 0.0, b, _TOL[m] / 10 ** i)
            return value, error + b * worst, converged and inner_converged

        value, error, converged = level(1, (), 1.0, prefactor, 0.0)
        # every integrand is nonnegative, so the rounding error of the sum is
        # at most about one unit roundoff per evaluation, relative to the value
        rounding = evaluations * sys.float_info.epsilon * abs(value)
        return QuadratureResult(value, max(error, rounding), evaluations, converged)

    return [moment(k) for k in powers]


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

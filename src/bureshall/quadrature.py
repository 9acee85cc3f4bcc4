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

Every Gamma argument but the first is an integer, and the first is a
half-integer when m is odd, so C is a rational times pi^floor(m/2) and is
computed exactly before it is rounded.

The delta is eliminated by the standard parametrization of the simplex,
u in (0, pi/2)^(m-1) with lambda_i = sin^2 u_i prod_{j<i} cos^2 u_j and
lambda_m = prod_j cos^2 u_j.  Weight times Jacobian is then

    2^(m-1)/C prod_i sin^(2 alpha+1) u_i cos^((2 alpha+2)(m-i)-1) u_i

times the pair factors; all exponents are nonnegative integers, so the
alpha = -1/2 case (n = m) has a smooth integrand.  Each u_i is one level of
nested double-exponential (tanh-sinh) quadrature (Takahasi & Mori 1974),
`_quad`: the fp rule of mpmath's `quad`, restated with the stdlib.  It has
mpmath's nodes on [-1, 1], degrees 1 to 6 that each reuse the previous
degree's sum, and its extrapolated error estimate (Bailey, Jeyabalan & Li
2005).  It integrates a list of integrands at once, so one pass yields the
mass and every requested power of S.  lambda_(m-1) and lambda_m are
exchangeable, so the innermost integral covers (0, pi/4) and is doubled.
Tanh-sinh nodes round onto the interval ends in floating point, so the
integrands take their limits there, such as 0 for the pair factor
(x - y)^2 / (x + y) at x = y = 0.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache
from itertools import repeat
from typing import NamedTuple

from .cumulants import EnsembleDims, moments_cumulants_convert


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def normalization_constant(dims: EnsembleDims) -> float:
    """The constant C of the eigenvalue density, exact until rounded once."""
    m = dims.m
    two_alpha = int(2 * dims.alpha)  # an odd integer, at least -1
    f = Fraction(1, 2 ** (m * (m + two_alpha)))
    for i in range(1, m + 1):
        # Gamma(i+1) Gamma(i+2 alpha+1) / Gamma(i+alpha+1/2)
        f *= Fraction(math.factorial(i) * math.factorial(i + two_alpha),
                      math.factorial(i + (two_alpha - 1) // 2))
    twice_d = int(2 * dims.d)  # 2 m(m+2 alpha+1)/2, odd exactly when m is
    k = twice_d // 2
    if twice_d % 2:
        # Gamma(k+1/2) = (2k)! sqrt(pi) / (4^k k!), its sqrt(pi) taken from pi^(m/2)
        f *= Fraction(4 ** k * math.factorial(k), math.factorial(2 * k))
    else:
        f /= math.factorial(k - 1)
    return float(f) * math.pi ** (m // 2)


# absolute tolerances of the moments, by m
_TOL = {2: 1e-10, 3: 1e-7}

_EPS = sys.float_info.epsilon


def _degree_nodes(degree: int) -> list[tuple[float, float]]:
    """The (node, weight) pairs that degree adds on [-1, 1]: steps of 2^-degree
    in t for x = tanh(pi/2 sinh t), at the odd multiples only past degree 1,
    whose sum reuses the previous degree's.  Ends where x rounds to 1."""
    t0 = math.ldexp(1.0, -degree)
    nodes = [(0.0, math.pi / 2)] if degree == 1 else []
    step = t0 if degree == 1 else 2 * t0
    # a and b are pi/4 e^t and pi/4 e^-t, so that c = e^(pi/2 sinh t)
    a, b = math.pi / 4 * math.exp(t0), math.pi / 4 / math.exp(t0)
    up = math.exp(step)
    down = 1 / up
    for _ in range(20 * 2 ** degree + 1):
        c = math.exp(a - b)
        d = 1 / c
        co = (c + d) / 2
        x = (c - d) / 2 / co
        if x == 1.0:
            break
        w = (a + b) / co ** 2
        nodes += ((x, w), (-x, w))
        a *= up
        b *= down
    return nodes


@cache
def _rule(a: float, b: float) -> list[list[tuple[float, float]]]:
    """The nodes of degrees 1..6, mapped linearly onto [a, b]."""
    half, mid = (b - a) / 2, (b + a) / 2
    return [[(mid + half * x, half * w) for x, w in _degree_nodes(degree)]
            for degree in range(1, 7)]


def _error(results: list[float]) -> float:
    """Error estimate of the last of the results of degrees 1, 2, ...: the
    change from the one before it, or past two degrees its extrapolation,
    assuming each degree doubles the correct digits."""
    if len(results) == 2:
        return abs(results[0] - results[1])
    if results[-1] == results[-2] == results[-3]:
        return 0.0
    try:
        d1 = math.log(abs(results[-1] - results[-2]), 10)
        d2 = math.log(abs(results[-1] - results[-3]), 10)
    except ValueError:
        return _EPS
    return 10.0 ** int(min(0, max(d1 * d1 / d2, 2 * d1, -53)))


def _quad(f, a: float, b: float, target: float) -> tuple[list, list, list]:
    """Tanh-sinh quadrature over [a, b] of f, which returns a list of
    integrand values, as (values, errors, converged) lists with an entry per
    integrand.  It stops at the degree where every error estimate is at most
    eps; converged means the error estimate met the absolute target."""
    rows: list = []  # the results of each degree so far
    errors: list[float] = []
    for degree, nodes in enumerate(_rule(a, b), start=1):
        h = math.ldexp(1.0, -degree)
        terms = zip(*[[w * v for v in f(x)] for x, w in nodes])
        # the previous degree's nodes, at step 2h, are this degree's even ones
        previous = rows[-1] if rows else repeat(0.0)
        rows.append([h * (r / (2 * h) + math.fsum(t)) for r, t in zip(previous, terms)])
        if degree > 1:
            errors = [_error(column) for column in zip(*rows)]
            if max(errors) <= _EPS:
                break
    return rows[-1], errors, [e <= target for e in errors]


def _pair(x: float, y: float) -> float:
    """(x - y)^2 / (x + y); its limit 0 where nodes round onto x = y = 0."""
    s = x + y
    return (x - y) ** 2 / s if s else 0.0


def _entropy_term(lam: float) -> float:
    """-lam ln lam; its limit 0 where nodes round onto lam = 0."""
    return -lam * math.log(lam) if lam > 0.0 else 0.0


@cache
def moment_oracle(dims: EnsembleDims, powers: tuple[int, ...] = (0, 1, 2, 3)
                  ) -> tuple[QuadratureResult, ...]:
    """Raw entropy moments E[S^k] for the requested powers (m in {2, 3}), all
    from one pass of nested 1-D integrals over u_1..u_(m-1) (see the module
    docstring).  Each result counts the evaluations of the whole pass, and
    the pass is kept for the rest of the process."""
    m = dims.m
    if m not in _TOL:
        raise ValueError(f"quadrature oracle supports m in {{2, 3}}, got m={m}")
    two_alpha = int(2 * dims.alpha)
    # 2^(m-1) from the Jacobian, times 2 for the half-range innermost integral
    prefactor = 2.0 ** m / normalization_constant(dims)
    evaluations = 0

    def level(i: int, lams: tuple, rest: float, weight: float, entropy: float):
        """(values, errors, converged), one entry per power, of the integral
        over u_i, given the fixed lambda_1..lambda_(i-1), their complement
        `rest` and the weight and entropy they contribute."""
        innermost = i == m - 1
        p_cos = (two_alpha + 2) * (m - i) - 1
        worst = [0.0] * len(powers)
        inner_converged = [True] * len(powers)

        def f(u: float) -> list[float]:
            nonlocal evaluations, worst, inner_converged
            su, cu = math.sin(u), math.cos(u)
            lam = rest * su * su
            w = weight * su ** (two_alpha + 1) * cu ** p_cos
            for x in lams:
                w *= _pair(x, lam)
            h = entropy + _entropy_term(lam)
            if innermost:
                evaluations += 1
                last = rest * cu * cu
                for x in lams:
                    w *= _pair(x, last)
                w *= _pair(lam, last)
                h += _entropy_term(last)
                return [w * h ** k for k in powers]
            values, errors, converged = level(i + 1, lams + (lam,), rest * cu * cu, w, h)
            worst = list(map(max, worst, errors))
            inner_converged = [a and c for a, c in zip(inner_converged, converged)]
            return values

        # lambda_(m-1) and lambda_m are exchangeable: integrate half the range
        b = math.pi / 4 if innermost else math.pi / 2
        values, errors, converged = _quad(f, 0.0, b, _TOL[m] / 10 ** i)
        return (values, [e + b * x for e, x in zip(errors, worst)],
                [c and ic for c, ic in zip(converged, inner_converged)])

    values, errors, converged = level(1, (), 1.0, prefactor, 0.0)
    # every integrand is nonnegative, so the rounding error of the sum is
    # at most about one unit roundoff per evaluation, relative to the value
    return tuple(
        QuadratureResult(v, max(e, evaluations * _EPS * abs(v)), evaluations, c)
        for v, e, c in zip(values, errors, converged))


def normalization_check(dims: EnsembleDims) -> QuadratureResult:
    """Total mass of the density with the exact constant C; should be 1."""
    return moment_oracle(dims)[0]


def oracle_cumulants(dims: EnsembleDims) -> list[QuadratureResult]:
    """kappa_1..kappa_3 by quadrature moments plus moment-cumulant
    conversion, with first-order error propagation."""
    moments = moment_oracle(dims)[1:]
    mu = [r.value for r in moments]
    err = [r.error_estimate for r in moments]
    evals = moments[0].evaluations
    converged = all(r.converged for r in moments)
    kappas = moments_cumulants_convert(tuple(mu), "moments_to_cumulants")
    errors = (
        err[0],
        err[1] + 2 * abs(mu[0]) * err[0],
        err[2] + 3 * (abs(mu[0]) * err[1] + abs(mu[1]) * err[0]) + 6 * mu[0] ** 2 * err[0],
    )
    return [QuadratureResult(k, e, evals, converged) for k, e in zip(kappas, errors)]

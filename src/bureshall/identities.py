"""Exact verification of the summation apparatus behind the cumulant formulas.

Three families of objects live here:

* the anomaly catalog Omega_1 .. Omega_18: finite single sums of rational
  functions times polygamma values that admit no closed form individually but
  cancel when cumulants are assembled, stated as one table of weights and
  polygamma factors and evaluated by `omega(index, m, **params)`, which
  takes exactly the parameters a, b, c that its row reads;

* a declarative catalog of summation identities relating those anomalies (and
  in a few cases collapsing them to closed forms).  Each identity stores its
  domain (admissibility rules and parameter grid) plus builders for its two
  sides; the residual LHS - RHS is an element of the constant ring and must
  be the zero polynomial.  Every finite sum on either side is an anomaly
  evaluated by `omega`, except the three-term cycle's left side, which no
  row states; so the identity grid checks all 18 rows of the anomaly
  catalog too;

* telescoping fixtures: re-summation functions G, each an anomaly, with
  their one-step differences written via the shift recurrence
  psi_k(z+1) - psi_k(z) = (-1)^k k! / z^(k+1); the check sums the
  differences back up to G.

All evaluation is exact.  Admissibility lives in the domain table alone: a
right-hand side, left-hand side or telescope step is built only after every
rule of its domain holds, and those rules exclude each zero denominator the
builders meet, so the builders divide Fractions directly.  Anomalies have no
domain entry; `omega` raises AnomalyDomainError naming the summation index k
at which a denominator vanishes or a polygamma argument is nonpositive.
Inadmissible parameters raise, never skip silently.

The verification suite, `identity_checks`, is a list of independent jobs,
one entry-point call each.  It splits them between the calling process and
forked workers, one share per usable CPU that strides through each family
of jobs, and returns the outcomes in the suite's order.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import permutations
from typing import Callable, NamedTuple, Optional

from .fileio import _fork_workers
from .polygamma import psi_exact
from .ring import ConstPoly, ZERO


class AnomalyDomainError(ValueError):
    """Parameter set makes an anomaly ill-defined (zero denominator or
    nonpositive polygamma argument)."""


class IdentityDomainError(ValueError):
    """Parameter set outside an identity's admissible domain."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"parameter must be int or Fraction, got {type(x).__name__}")


def _inv(x: Fraction, what: str, k: int) -> Fraction:
    if x == 0:
        raise AnomalyDomainError(f"zero denominator in {what} at k={k}")
    return 1 / x


def _psi(order: int, x: Fraction, what: str, k: int) -> ConstPoly:
    if x <= 0:
        raise AnomalyDomainError(f"nonpositive polygamma argument {x} in {what} at k={k}")
    return psi_exact(order, x)


def _sum_poly(m: int, term: Callable[[int], ConstPoly]) -> ConstPoly:
    total = ZERO
    for k in range(1, m + 1):
        total = total + term(k)
    return total


# ---------------------------------------------------------------------------
# anomalies
# ---------------------------------------------------------------------------

class _Arg(NamedTuple):
    """An argument form: a function of the summation length m, the one
    anomaly parameter it reads (None if it reads none) and the summation
    index k."""

    param: Optional[str]
    at: Callable[[int, Optional[Fraction], int], Fraction]


_K = _Arg(None, lambda m, _, k: Fraction(k))
_M1K = _Arg(None, lambda m, _, k: Fraction(m + 1 - k))
_A1K = _Arg("a", lambda m, a, k: a + 1 - k)
_KAM = _Arg("a", lambda m, a, k: k + a - m)
_KB = _Arg("b", lambda m, b, k: k + b)
_KC = _Arg("c", lambda m, c, k: k + c)

# Omega_index = sum_{k=1..m} psi_o1(f1(k)) psi_o2(f2(k)) / den(k)^power, as
# index: (den, power, ((o1, f1), (o2, f2))).  A squared polygamma is a repeated
# factor.  The parameters an anomaly takes are those its argument forms read.
_OMEGA = {
    1: (_A1K, 1, ((0, _K),)),
    2: (_K, 1, ((0, _A1K),)),
    3: (_KC, 2, ((0, _KB),)),
    4: (_KC, 1, ((0, _KB), (0, _KB))),
    5: (_KC, 1, ((1, _KB),)),
    6: (_KC, 1, ((0, _KB),)),
    7: (_A1K, 2, ((0, _K),)),
    8: (_A1K, 1, ((0, _K), (0, _K))),
    9: (_K, 2, ((0, _A1K),)),
    10: (_K, 1, ((0, _A1K), (0, _A1K))),
    11: (_M1K, 1, ((0, _K), (0, _KAM))),
    12: (_M1K, 1, ((0, _K), (0, _A1K))),
    13: (_A1K, 1, ((0, _K), (0, _A1K))),
    14: (_K, 1, ((0, _K), (0, _A1K))),
    15: (_KB, 1, ((0, _K), (0, _KB))),
    16: (_K, 1, ((0, _K), (0, _KB))),
    17: (_A1K, 1, ((1, _K),)),
    18: (_K, 1, ((1, _A1K),)),
}


@functools.lru_cache(maxsize=None)
def omega(index: int, m: int, **params) -> ConstPoly:
    """Exact value of Omega_index at summation length m as a polynomial in
    the constant ring; params are the a, b, c (ints or Fractions) that its
    row in the anomaly table reads.  An unknown index, m < 1 or a missing or
    extra parameter raises ValueError.  Values are cached per process, like
    `psi_exact`'s: one anomaly recurs across identities at the same
    (m, params)."""
    if index not in _OMEGA:
        raise ValueError(f"anomaly index must be 1..18, got {index}")
    if m < 1:
        raise ValueError("m must be a positive integer")
    den, power, factors = _OMEGA[index]
    needed = {arg.param for arg in (den, *(arg for _, arg in factors))} - {None}
    for name in sorted(needed ^ params.keys()):
        verb = "requires" if name in needed else "does not take"
        raise ValueError(f"Omega_{index} {verb} parameter {name!r}")
    params = {name: _frac(value) for name, value in params.items()}
    what = f"Omega_{index}"

    def at(arg: _Arg, k: int) -> Fraction:
        return arg.at(m, params.get(arg.param), k)

    def term(k: int) -> ConstPoly:
        value = _inv(at(den, k), what, k) ** power
        for order, arg in factors:
            value = value * _psi(order, at(arg, k), what, k)
        return value

    return _sum_poly(m, term)


def degenerate_anomaly_check(m: int) -> list[tuple[str, ConstPoly]]:
    """At a = m the two-sided anomalies collapse pairwise onto single-sum
    anomalies: Omega7 = Omega9, Omega8 = Omega10, Omega11 = Omega10.  Returns
    (relation name, residual) pairs; each residual must be zero."""
    return [
        (f"omega{i}_equals_omega{j}", omega(i, m, a=m) - omega(j, m, a=m))
        for i, j in ((7, 9), (8, 10), (11, 10))
    ]


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

class IdentityCase(NamedTuple):
    identity_id: str
    m: int
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    c: Optional[Fraction] = None
    alpha: Optional[Fraction] = None


def case(identity_id: str, m: int, **params) -> IdentityCase:
    coerced = {k: _frac(v) for k, v in params.items()}
    return IdentityCase(identity_id, m, **coerced)


class _Domain(NamedTuple):
    """An identity's admissible parameters: rules (holds(case), message)
    checked in order, the message formatted with the case's fields, and the
    grid of parameter sets verified at summation length m."""

    rules: tuple[tuple[Callable[[IdentityCase], bool], str], ...]
    grid: Callable[[int], list[dict]]


def _positive(name: str, strict: bool = True):
    """The rule name > 0 (name >= 0 if not strict); a missing name fails it."""
    def holds(cs):
        v = getattr(cs, name)
        return v is not None and (v > 0 if strict else v >= 0)
    return holds, f"need {name} {'>' if strict else '>='} 0, got {name}={{{name}}}"


def _positive_int(name: str):
    def holds(cs):
        v = getattr(cs, name)
        return v is not None and v > 0 and v.denominator == 1
    return holds, f"need positive integer {name}, got {{{name}}}"


_HALVES = (Fraction(1, 2), Fraction(3, 2))

# Integer spans: a in (m, m+6], b, c in [0, 6] subject to each domain's rules;
# half-integer a and b values exercise the ln2 sector; alpha runs over the
# positive half-odd values up to 7/2.
_M_ONLY = _Domain((), lambda m: [{}])
_A_GT_M = _Domain(
    # a = m is a removable-singularity boundary of the written closed form
    # (psi values at a - m = 0 appear); recorded as inadmissible, not guessed.
    ((lambda cs: cs.a is not None and cs.a > cs.m, "need a > m, got a={a}, m={m}"),),
    lambda m: [{"a": a} for a in [*range(m + 1, m + 7), *(m + h for h in _HALVES)]],
)
_B_POS = _Domain((_positive("b"),), lambda m: [{"b": b} for b in [*range(1, 7), *_HALVES]])
_B_NONNEG = _Domain((_positive("b", strict=False),),
                    lambda m: [{"b": b} for b in [*range(0, 7), *_HALVES]])
_BC_DISTINCT_NONNEG = _Domain(
    (_positive("b", strict=False), _positive("c", strict=False),
     (lambda cs: cs.b != cs.c, "need b != c")),
    lambda m: [{"b": b, "c": c} for b in range(0, 7) for c in range(0, 7) if b != c],
)
_AB_POS = _Domain((_positive("a"), _positive("b")),
                  lambda m: [{"a": a, "b": b} for a in range(1, 5) for b in range(1, 5)])
_ABC_DISTINCT_POS_INT = _Domain(
    (_positive_int("a"), _positive_int("b"), _positive_int("c"),
     (lambda cs: len({cs.a, cs.b, cs.c}) == 3, "need a, b, c pairwise distinct")),
    lambda m: [dict(zip("abc", trip)) for trip in permutations(range(1, 5), 3)],
)
_ALPHA_POS = _Domain(
    ((lambda cs: cs.alpha is not None and 2 * cs.alpha > 0,
      "need alpha > 0 so every argument stays positive, got alpha={alpha}"),),
    lambda m: [{"alpha": Fraction(twice, 2)} for twice in (1, 3, 5, 7)],
)


class IdentityDef(NamedTuple):
    identity_id: str
    domain: _Domain
    lhs: Callable[[IdentityCase], ConstPoly]
    rhs: Callable[[IdentityCase], ConstPoly]


def _p0(x):
    return psi_exact(0, x)


def _p1(x):
    return psi_exact(1, x)


def _p2(x):
    return psi_exact(2, x)


_IDENTITIES: dict[str, IdentityDef] = {}


def _register(identity_id, domain, lhs, rhs):
    _IDENTITIES[identity_id] = IdentityDef(identity_id, domain, lhs, rhs)


# -- closed forms in m alone -------------------------------------------------

def _rhs_psi0_over_mk(cs):
    m1 = Fraction(cs.m + 1)
    return _p0(m1) ** 2 - _p0(Fraction(1)) * _p0(m1) + _p1(m1) - _p1(Fraction(1))


_register(
    "psi0_over_mk", _M_ONLY,
    lambda cs: omega(1, cs.m, a=cs.m),
    _rhs_psi0_over_mk,
)

_register(
    "psi0_mk_over_k", _M_ONLY,
    lambda cs: omega(2, cs.m, a=cs.m),
    _rhs_psi0_over_mk,
)


def _rhs_psi0_over_k2(cs):
    m1 = Fraction(cs.m + 1)
    one = Fraction(1)
    return (
        omega(5, cs.m, b=0, c=0)
        - _p0(m1) * _p1(m1) - Fraction(1, 2) * _p2(m1)
        + _p0(one) * _p1(one) + Fraction(1, 2) * _p2(one)
    )


_register(
    "psi0_over_k2", _M_ONLY,
    lambda cs: omega(3, cs.m, b=0, c=0),
    _rhs_psi0_over_k2,
)


def _rhs_psi0_mk_over_k2(cs):
    m1 = Fraction(cs.m + 1)
    one = Fraction(1)
    return (
        omega(5, cs.m, b=0, c=0)
        + _p0(one) * _p1(m1) + _p0(m1) * (_p1(one) - 2 * _p1(m1))
        - _p2(m1) + _p2(one)
    )


_register(
    "psi0_mk_over_k2", _M_ONLY,
    lambda cs: omega(9, cs.m, a=cs.m),
    _rhs_psi0_mk_over_k2,
)


def _rhs_psi0sq_mk_over_k(cs):
    m1 = Fraction(cs.m + 1)
    one = Fraction(1)
    return (
        omega(5, cs.m, b=0, c=0)
        + _p0(m1) ** 3 - _p0(one) * _p0(m1) ** 2 - 2 * _p1(one) * _p0(m1)
        + _p1(m1) * _p0(m1) + _p0(one) * _p1(m1)
    )


_register(
    "psi0sq_mk_over_k", _M_ONLY,
    lambda cs: omega(10, cs.m, a=cs.m),
    _rhs_psi0sq_mk_over_k,
)


# -- shifted-index identities with parameter b (or b, c) ----------------------

def _rhs_psi0_kb_over_kb2(cs):
    b, m = cs.b, cs.m
    bm1, b1 = b + m + 1, b + 1
    return (
        omega(5, m, b=b, c=b)
        - _p0(bm1) * _p1(bm1) - Fraction(1, 2) * _p2(bm1)
        + _p0(b1) * _p1(b1) + Fraction(1, 2) * _p2(b1)
    )


_register(
    "psi0_kb_over_kb2", _B_NONNEG,
    lambda cs: omega(3, cs.m, b=cs.b, c=cs.b),
    _rhs_psi0_kb_over_kb2,
)


def _rhs_psi0_kb_over_k2(cs):
    b, m = cs.b, cs.m
    bm1, b1, m1, one = b + m + 1, b + 1, Fraction(m + 1), Fraction(1)
    return (
        omega(5, m, b=0, c=b)
        - 1 / (b * b) * (_p0(bm1) - _p0(b1) - _p0(m1) + _p0(one))
        - _p1(m1) * _p0(bm1)
        - 1 / b * (_p1(one) - _p1(m1))
        + _p1(one) * _p0(b1)
    )


_register(
    "psi0_kb_over_k2", _B_POS,
    lambda cs: omega(3, cs.m, b=cs.b, c=0),
    _rhs_psi0_kb_over_k2,
)


def _rhs_psi0_over_kb2(cs):
    b, m = cs.b, cs.m
    bm1, b1, m1, one = b + m + 1, b + 1, Fraction(m + 1), Fraction(1)
    return (
        omega(5, m, b=b, c=0)
        + 1 / (b * b) * (_p0(bm1) - _p0(b1) - _p0(m1) + _p0(one))
        - _p0(m1) * _p1(bm1)
        - 1 / b * (_p1(bm1) - _p1(b1))
        + _p0(one) * _p1(b1)
    )


_register(
    "psi0_over_kb2", _B_POS,
    lambda cs: omega(3, cs.m, b=0, c=cs.b),
    _rhs_psi0_over_kb2,
)


def _rhs_psi0_kb_over_kc_swap(cs):
    b, c, m = cs.b, cs.c, cs.m
    return (
        -omega(6, m, b=c, c=b)
        + _p0(m + c + 1) * _p0(m + b + 1) - _p0(b + 1) * _p0(c + 1)
        + 1 / (c - b)
        * (_p0(m + c + 1) - _p0(m + b + 1) - _p0(c + 1) + _p0(b + 1))
    )


_register(
    "psi0_kb_over_kc_swap", _BC_DISTINCT_NONNEG,
    lambda cs: omega(6, cs.m, b=cs.b, c=cs.c),
    _rhs_psi0_kb_over_kc_swap,
)


def _rhs_psi0_kb_over_kc2(cs):
    b, c, m = cs.b, cs.c, cs.m
    cm1, c1, bm1, b1 = c + m + 1, c + 1, b + m + 1, b + 1
    return (
        omega(5, m, b=c, c=b)
        + 1 / (c - b) ** 2 * (_p0(cm1) - _p0(c1) - _p0(bm1) + _p0(b1))
        + 1 / (c - b) * (_p1(c1) - _p1(cm1))
        - _p1(cm1) * _p0(bm1) + _p1(c1) * _p0(b1)
    )


_register(
    "psi0_kb_over_kc2", _BC_DISTINCT_NONNEG,
    lambda cs: omega(3, cs.m, b=cs.b, c=cs.c),
    _rhs_psi0_kb_over_kc2,
)


def _rhs_psi0_psi0kb_over_k(cs):
    b, m = cs.b, cs.m
    bm1, b1, m1, one = b + m + 1, b + 1, Fraction(m + 1), Fraction(1)
    return (
        -Fraction(1, 2) * (omega(5, m, b=0, c=b) + omega(4, m, b=0, c=b))
        - 1 / b * omega(6, m, b=b, c=0)
        + 1 / (b * b) * (_p0(bm1) - _p0(b1) - _p0(m1) + _p0(one))
        + Fraction(1, 2) / b * (
            2 * _p0(m1) * _p0(bm1) - 2 * _p0(one) * _p0(b1)
            - _p0(m1) ** 2 - _p1(m1) + _p0(one) ** 2 + _p1(one)
        )
        + Fraction(1, 2) * (
            (_p0(m1) ** 2 + _p1(m1)) * _p0(bm1) - (_p0(one) ** 2 + _p1(one)) * _p0(b1)
        )
    )


_register(
    "psi0_psi0kb_over_k", _B_POS,
    lambda cs: omega(16, cs.m, b=cs.b),
    _rhs_psi0_psi0kb_over_k,
)


def _rhs_psi0_psi0kb_over_kb(cs):
    b, m = cs.b, cs.m
    bm1, b1, m1, one = b + m + 1, b + 1, Fraction(m + 1), Fraction(1)
    return (
        -Fraction(1, 2) * (omega(4, m, b=b, c=0) + omega(5, m, b=b, c=0))
        - 1 / b * omega(6, m, b=b, c=0)
        + Fraction(1, 2) / b * (
            _p0(bm1) ** 2 + _p1(bm1) - _p0(b1) ** 2 - _p1(b1)
        )
        + Fraction(1, 2) * (
            _p0(m1) * (_p0(bm1) ** 2 + _p1(bm1))
            - _p0(one) * _p0(b1) ** 2 - _p0(one) * _p1(b1)
        )
    )


_register(
    "psi0_psi0kb_over_kb", _B_POS,
    lambda cs: omega(15, cs.m, b=cs.b),
    _rhs_psi0_psi0kb_over_kb,
)


# -- identities with the reversed index a + 1 - k ------------------------------

def _rhs_psi0_ak_over_k(cs):
    a, m = cs.a, cs.m
    am, a1, m1, one = a - m, a + 1, Fraction(m + 1), Fraction(1)
    return (
        -omega(6, m, b=am, c=0)
        + Fraction(1, 2) * (
            -2 * _p0(a1) * (_p0(am) - _p0(m1) + _p0(one))
            + (_p0(am) + 2 * _p0(m1) - 2 * _p0(one)) * _p0(am)
            - _p1(am) + _p0(a1) ** 2 + _p1(a1)
        )
    )


_register(
    "psi0_ak_over_k", _A_GT_M,
    lambda cs: omega(2, cs.m, a=cs.a),
    _rhs_psi0_ak_over_k,
)


def _rhs_psi0_over_ak(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        -omega(6, m, b=am, c=0)
        + Fraction(1, 2) * (
            (_p0(a1) - _p0(am)) ** 2
            + 2 * _p0(m1) * (-_p0(am1) + _p0(am) + _p0(a1))
            - 2 * _p0(one) * _p0(am)
            - _p1(am) + _p1(a1)
        )
    )


_register(
    "psi0_over_ak", _A_GT_M,
    lambda cs: omega(1, cs.m, a=cs.a),
    _rhs_psi0_over_ak,
)


def _rhs_psi0_over_ak2(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        omega(5, m, b=am, c=0)
        + 1 / (am * am) * (-_p0(am1) + _p0(a1) - _p0(m1) + _p0(one))
        - _p1(a1) * _p0(m1)
        + _p0(a1) * (_p1(am1) - _p1(a1))
        + 1 / am * (_p1(am1) - _p1(a1))
        + _p0(am1) * (_p1(a1) - _p1(am1))
        + _p0(one) * _p1(am1)
        + Fraction(1, 2) * _p2(am1) - Fraction(1, 2) * _p2(a1)
    )


_register(
    "psi0_over_ak2", _A_GT_M,
    lambda cs: omega(7, cs.m, a=cs.a),
    _rhs_psi0_over_ak2,
)


def _rhs_psi0sq_over_ak(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        omega(4, m, b=am, c=0) + omega(4, m, b=0, c=am) + omega(5, m, b=am, c=am)
        + (2 / am - 2 * _p0(a1)) * omega(6, m, b=am, c=0)
        + 1 / (am * am) * (_p0(am1) - _p0(a1) + _p0(m1) - _p0(one))
        + 1 / am * (
            2 * _p0(a1) * (-_p0(am1) - _p0(m1) + _p0(one))
            + _p0(am1) ** 2 + _p0(a1) ** 2
        )
        + Fraction(1, 6) * (
            -6 * _p0(a1) ** 2 * (_p0(am1) - _p0(m1))
            - 6 * _p0(a1) * (-_p0(am1) ** 2 + 2 * _p0(one) * _p0(am1) + _p1(am1))
            - 2 * _p0(am1) ** 3
            + 6 * _p0(one) * _p0(am1) ** 2
            - 6 * _p0(one) * _p1(am1)
            + 6 * _p0(am1) * _p1(am1)
            + _p2(am1)
            + 2 * _p0(a1) ** 3
            + 6 * _p0(one) * _p1(a1)
            - _p2(a1)
        )
    )


_register(
    "psi0sq_over_ak", _A_GT_M,
    lambda cs: omega(8, cs.m, a=cs.a),
    _rhs_psi0sq_over_ak,
)


def _rhs_psi1_ak_over_k(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        -omega(5, m, b=am, c=0)
        + 1 / (am * am) * (_p0(am1) - _p0(a1) + _p0(m1) - _p0(one))
        + _p1(a1) * (-_p0(am1) + _p0(a1) + _p0(m1) - _p0(one))
        + 1 / am * (_p1(a1) - _p1(am1))
        + Fraction(1, 2) * (
            2 * (_p0(am1) - _p0(a1) + _p0(m1) - _p0(one)) * _p1(am1)
            - _p2(am1) + _p2(a1)
        )
    )


_register(
    "psi1_ak_over_k", _A_GT_M,
    lambda cs: omega(18, cs.m, a=cs.a),
    _rhs_psi1_ak_over_k,
)


def _rhs_psi1_over_ak(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        -omega(5, m, b=am, c=0) + omega(5, m, b=0, c=am) - omega(5, m, b=am, c=am)
        - _p1(m1) * _p0(am1)
        + 1 / (am * am) * (_p0(am1) - _p0(a1) + _p0(m1) - _p0(one))
        + 1 / am * (_p1(a1) - _p1(am1))
        + Fraction(1, 2) * (
            -2 * _p1(a1) * (_p0(am1) - _p0(m1) + _p0(one))
            + 2 * _p1(m1) * _p0(am1)
            - _p2(am1) + _p2(a1)
        )
        + _p0(a1) * (_p1(a1) - _p1(one))
        + _p1(one) * _p0(a1)
    )


_register(
    "psi1_over_ak", _A_GT_M,
    lambda cs: omega(17, cs.m, a=cs.a),
    _rhs_psi1_over_ak,
)


def _rhs_psi0_ak_over_k2(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        omega(5, m, b=am, c=0) - omega(5, m, b=0, c=am) + omega(5, m, b=am, c=am)
        + 1 / (am * am) * (-_p0(am1) + _p0(a1) - _p0(m1) + _p0(one))
        + 1 / am * (_p1(am1) - _p1(a1))
        + Fraction(1, 2) * (
            2 * _p1(a1) * (_p0(am1) - _p0(m1) + _p0(one))
            - 2 * _p1(m1) * _p0(am1)
            + _p2(am1) - _p2(a1)
        )
        + _p0(a1) * (_p1(one) - _p1(a1))
    )


_register(
    "psi0_ak_over_k2", _A_GT_M,
    lambda cs: omega(9, cs.m, a=cs.a),
    _rhs_psi0_ak_over_k2,
)


def _rhs_psi0_psi0ak_over_ak(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        Fraction(1, 2) * (omega(10, m, a=a) - omega(5, m, b=am, c=0))
        + Fraction(1, 2) / (am * am) * (_p0(am1) - _p0(a1) + _p0(m1) - _p0(one))
        + Fraction(1, 2) / am * (_p1(a1) - _p1(am1))
        + Fraction(1, 4) * (
            2 * _p0(m1) * (_p1(a1) - _p0(am1) ** 2)
            + 2 * (_p0(a1) - _p0(am1)) * (_p1(a1) - _p1(am1))
            - 2 * _p0(one) * _p1(am1)
            - _p2(am1)
            + 2 * _p0(one) * _p0(a1) ** 2
            + _p2(a1)
        )
    )


_register(
    "psi0_psi0ak_over_ak", _A_GT_M,
    lambda cs: omega(13, cs.m, a=cs.a),
    _rhs_psi0_psi0ak_over_ak,
)


def _rhs_psi0_psi0ak_over_k(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        Fraction(1, 2) * (
            omega(4, m, b=am, c=0) + omega(4, m, b=0, c=am)
            - omega(5, m, b=am, c=0) + omega(5, m, b=0, c=am)
        )
        + (1 / am - _p0(a1)) * omega(6, m, b=am, c=0)
        + 1 / (am * am) * (_p0(am1) - _p0(a1) + _p0(m1) - _p0(one))
        - Fraction(1, 2) / am * (
            2 * _p0(a1) * (_p0(am1) + _p0(m1) - _p0(one))
            - _p0(am1) ** 2 + _p1(am1) - _p0(a1) ** 2 - _p1(a1)
        )
        + Fraction(1, 6) * (
            3 * _p0(a1) ** 2 * (_p0(m1) - _p0(am1))
            - 3 * _p0(a1) * (
                2 * _p0(one) * _p0(am1) - _p0(am1) ** 2 + _p1(am1) - _p1(a1)
                + _p0(one) ** 2 + _p1(one)
            )
            - _p0(am1) ** 3
            + 3 * _p0(one) * _p0(am1) ** 2
            + 3 * _p1(a1) * _p0(m1)
            - 3 * _p0(one) * _p1(am1)
            + 3 * _p0(am1) * (_p1(am1) - _p1(a1) + _p0(m1) ** 2 + _p1(m1))
            - _p2(am1)
            + _p0(a1) ** 3
            + _p2(a1)
        )
    )


_register(
    "psi0_psi0ak_over_k", _A_GT_M,
    lambda cs: omega(14, cs.m, a=cs.a),
    _rhs_psi0_psi0ak_over_k,
)


def _rhs_psi0_psi0ak_over_mk(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        Fraction(1, 2) * (
            omega(10, m, a=a) - omega(4, m, b=0, c=am)
            + omega(5, m, b=am, c=0) - omega(5, m, b=0, c=am)
        )
        - (1 / am - _p0(a1)) * omega(6, m, b=am, c=0)
        + Fraction(1, 2) / (am * am)
        * (3 * (_p0(a1) - _p0(am1) - _p0(m1) + _p0(one)))
        - Fraction(1, 2) / am * (
            _p0(a1) ** 2
            + 2 * (_p0(one) - 2 * _p0(m1)) * _p0(a1)
            - _p0(am1) ** 2
            + 2 * _p0(one) * _p0(am1)
            + 2 * (_p0(m1) - _p0(one)) * _p0(m1)
            + 2 * _p1(m1) - 2 * _p1(one)
        )
        + Fraction(1, 12) * (
            6 * _p0(am1) * (
                (-_p0(a1) + _p0(m1) - 2 * _p0(one)) * (_p0(m1) - _p0(a1))
                + _p1(m1) - 2 * _p1(one)
            )
            - 4 * _p0(a1) ** 3
            + 6 * _p0(one) * _p0(a1) ** 2
            + 6 * _p0(m1) ** 2 * _p0(a1)
            + 6 * _p1(am1) * _p0(a1)
            - 6 * _p0(m1) * (_p0(a1) ** 2 + _p1(am1))
            + 6 * _p1(m1) * _p0(a1)
            - 6 * _p0(a1) * _p1(a1)
            - _p2(a1)
            - 2 * _p0(am1) ** 3
            + 6 * _p0(one) * _p1(am1)
            + _p2(am1)
        )
    )


_register(
    "psi0_psi0ak_over_mk", _A_GT_M,
    lambda cs: omega(12, cs.m, a=cs.a),
    _rhs_psi0_psi0ak_over_mk,
)


def _rhs_psi0_psi0shift_over_mk(cs):
    a, m = cs.a, cs.m
    am, am1, a1, m1, one = a - m, a - m + 1, a + 1, Fraction(m + 1), Fraction(1)
    return (
        Fraction(1, 2) * (
            omega(10, m, a=a) + omega(4, m, b=am, c=0)
            + omega(4, m, b=0, c=am) + omega(5, m, b=0, c=am)
        )
        + 1 / am * omega(6, m, b=am, c=0)
        + Fraction(1, 2) / (am * am) * (_p0(am1) - _p0(a1) + _p0(m1) - _p0(one))
        + Fraction(1, 2) / am * (_p0(am1) ** 2 - _p0(a1) ** 2)
        + Fraction(1, 12) * (
            6 * _p0(a1) ** 2 * (_p0(am1) + _p0(one))
            + 6 * _p0(a1) * (
                -2 * _p0(m1) * (_p0(am1) + _p0(one))
                + _p1(am1) - _p1(a1) + _p0(m1) ** 2 + _p1(m1) - 2 * _p1(one)
            )
            - 2 * _p0(am1) ** 3
            + 6 * _p0(one) * _p0(am1) ** 2
            + 6 * _p0(m1) * (_p1(a1) - _p1(am1))
            + 6 * (_p0(m1) ** 2 + _p1(m1)) * _p0(am1)
            + _p2(am1)
            - 4 * _p0(a1) ** 3
            - _p2(a1)
        )
    )


_register(
    "psi0_psi0shift_over_mk", _A_GT_M,
    lambda cs: omega(11, cs.m, a=cs.a),
    _rhs_psi0_psi0shift_over_mk,
)


# -- three-term cyclic relation ------------------------------------------------

def _lhs_three_term(cs):
    a, b, c, m = cs.a, cs.b, cs.c, cs.m
    return _sum_poly(
        m,
        lambda k: 1 / (k + a) * _p0(k + b) * _p0(k + c)
        + 1 / (k + b) * _p0(k + a) * _p0(k + c)
        + 1 / (k + c) * _p0(k + a) * _p0(k + b),
    )


def _rhs_three_term(cs):
    a, b, c, m = cs.a, cs.b, cs.c, cs.m
    return (
        (1 / (b - a) + _p0(a)) * omega(6, m, b=c, c=b)
        + (1 / (c - a) + _p0(a)) * omega(6, m, b=b, c=c)
        + (1 / (a - b) + _p0(b)) * omega(6, m, b=c, c=a)
        + (1 / (c - b) + _p0(b)) * omega(6, m, b=a, c=c)
        + (1 / (a - c) + _p0(c + m)) * omega(6, m, b=b, c=a)
        + (1 / (b - c) + _p0(c + m)) * omega(6, m, b=a, c=b)
        + (1 / (c - b) - 1 / (c + m)) * _p0(a) * _p0(b + m)
        + (1 / (c - a) - 1 / (c + m)) * _p0(a + m) * _p0(b)
        + _p0(a) * _p0(b) * _p0(c + m)
        - _p0(a) * _p0(b + m) * _p0(c + m)
        + _p0(a) * _p0(b) * _p0(c)
        - _p0(b) * _p0(a + m) * _p0(c + m)
        + Fraction((a + m) * (a - b - c - m), (a - b) * (a - c) * (b + m) * (c + m)) * _p0(a + m)
        + 1 / (b - a) * _p0(a + m) * _p0(c + m)
        + Fraction((b + m) * (a - b + c + m), (a - b) * (a + m) * (b - c) * (c + m)) * _p0(b + m)
        + 1 / (a - b) * _p0(b + m) * _p0(c + m)
        + Fraction((c + m) * (a + b - c + m), (a - c) * (a + m) * (c - b) * (b + m)) * _p0(c + m)
        + 1 / (c + m) * _p0(a + m) * _p0(b + m)
        + (1 / (a - c) + 1 / (b - c) + 1 / c) * _p0(a) * _p0(b)
        + (1 / (b - a) + 1 / (a - c) - 1 / (a + m) + 1 / a) * _p0(b) * _p0(c + m)
        + 1 / (c - b) * _p0(a) * _p0(c)
        + (1 / (a - b) + 1 / (b - c) - 1 / (b + m) + 1 / b) * _p0(a) * _p0(c + m)
        + 1 / (c - a) * _p0(b) * _p0(c)
        + Fraction(a * (-a + b + c), b * c * (a - b) * (a - c)) * _p0(a)
        - Fraction(b * (a - b + c), a * c * (a - b) * (b - c)) * _p0(b)
        + Fraction(c * (a + b - c), a * b * (a - c) * (b - c)) * _p0(c)
    )


_register(
    "three_term_cycle", _ABC_DISTINCT_POS_INT,
    _lhs_three_term, _rhs_three_term,
)


# -- closed-form block-difference and trigamma identities ----------------------

def _lhs_block_diff(cs):
    a, b, m = cs.a, cs.b, cs.m
    return (
        omega(6, m, b=a + b + m, c=a) + omega(6, m, b=a + b + m, c=b)
        - omega(6, m, b=a + b, c=a) - omega(6, m, b=a + b, c=b)
    )


def _rhs_block_diff(cs):
    a, b, m = cs.a, cs.b, cs.m
    return (
        m / (a * (a + m)) * (_p0(b + m + 1) - _p0(b + 1))
        + m / (b * (b + m)) * (_p0(a + m + 1) - _p0(a + 1))
        - _p0(b + 1) * _p0(a + m + 1)
        - _p0(a + 1) * _p0(b + m + 1)
        + _p0(a + m + 1) * _p0(b + m + 1)
        - (1 / (a + m) + 1 / a + 1 / (b + m) + 1 / b) * _p0(a + b + m + 1)
        + (a + b + 2 * m) / ((a + m) * (b + m)) * _p0(a + b + 2 * m + 1)
        + _p0(a + 1) * _p0(b + 1)
        + (1 / a + 1 / b) * _p0(a + b + 1)
    )


_register("psi0_block_difference_pair", _AB_POS,
          _lhs_block_diff, _rhs_block_diff)


def _lhs_trigamma_closed_1(cs):
    t, m = 2 * cs.alpha, cs.m
    return (
        omega(5, m, b=t + m, c=0) - omega(5, m, b=t, c=0)
        - omega(5, m, b=t, c=t + m) + omega(5, m, b=t + m, c=t)
    )


def _rhs_trigamma_closed_1(cs):
    t, mf = 2 * cs.alpha, Fraction(cs.m)
    t1, tm1, t2m1 = t + 1, t + mf + 1, t + 2 * mf + 1
    m1, one = mf + 1, Fraction(1)
    return (
        _p0(one) * _p1(t1)
        + 1 / t * _p1(t1)
        - _p0(t1) * _p1(t1)
        + Fraction(1, 2) * _p2(t1)
        - (t * t + mf * mf + 3 * t * mf) / (t * mf * (t + mf)) * _p1(tm1)
        - (1 / (mf * mf) + 1 / (t + mf) ** 2) * _p0(t2m1)
        + 1 / (t * t * mf * mf * (t + mf) ** 2) * (
            t * t * mf * (t * t + 2 * mf * mf + 3 * t * mf) * _p1(t2m1)
            - (t * t + mf * mf) * (t + mf) ** 2 * _p0(t1)
            + (2 * t ** 4 + mf ** 4 + 2 * t * mf ** 3 + 4 * t * t * mf * mf + 4 * t ** 3 * mf)
            * _p0(tm1)
        )
        + (1 / (t * t) - 1 / (t + mf) ** 2) * (_p0(one) - _p0(m1))
        - _p0(one) * _p1(tm1)
        - _p1(t1) * _p0(m1)
        - Fraction(1, 2) * _p2(tm1)
        + _p0(m1) * _p1(tm1)
        + _p0(tm1) * _p1(tm1)
        - _p0(t2m1) * _p1(tm1)
        + _p1(t1) * _p0(tm1)
    )


_register("trigamma_alpha_closed_1", _ALPHA_POS,
          _lhs_trigamma_closed_1, _rhs_trigamma_closed_1)


def _lhs_trigamma_closed_2(cs):
    t, m = 2 * cs.alpha, cs.m
    return (
        omega(5, m, b=0, c=t) - omega(5, m, b=t, c=t)
        - omega(5, m, b=0, c=t + m) + omega(5, m, b=t, c=t + m)
    )


def _rhs_trigamma_closed_2(cs):
    t, mf = 2 * cs.alpha, Fraction(cs.m)
    t1, tm1, t2m1 = t + 1, t + mf + 1, t + 2 * mf + 1
    m1, one = mf + 1, Fraction(1)
    return (
        -_p0(one) * _p1(t1)
        - _p1(m1) * (_p0(t1) - 2 * _p0(tm1))
        - _p1(m1) * _p0(t2m1)
        + _p0(one) * _p1(tm1)
        - _p0(m1) * _p1(tm1)
        - _p0(tm1) * _p1(tm1)
        + _p0(t2m1) * _p1(tm1)
        + _p1(t1) * _p0(m1)
        + _p1(t1) * (_p0(t1) - _p0(tm1))
    )


_register("trigamma_alpha_closed_2", _ALPHA_POS,
          _lhs_trigamma_closed_2, _rhs_trigamma_closed_2)


# ---------------------------------------------------------------------------
# residual evaluation and grid enumeration
# ---------------------------------------------------------------------------

def _check_domain(cs: IdentityCase, domain: _Domain) -> None:
    """Raise IdentityDomainError unless m >= 1 and every rule of domain holds."""
    if cs.m < 1:
        raise IdentityDomainError("m must be a positive integer")
    for holds, message in domain.rules:
        if not holds(cs):
            raise IdentityDomainError(message.format(**cs._asdict()))


def identity_residual(cs: IdentityCase) -> ConstPoly:
    """LHS - RHS as an exact polynomial; zero iff the identity holds."""
    spec = _IDENTITIES.get(cs.identity_id)
    if spec is None:
        raise KeyError(f"unknown identity {cs.identity_id!r}")
    _check_domain(cs, spec.domain)
    return spec.lhs(cs) - spec.rhs(cs)


def default_grid(max_m: int = 8):
    """Admissible parameter grid used by the verification suite: for each
    m = 1..max_m, every identity at each parameter set of its domain's grid."""
    return [
        case(ident.identity_id, m, **params)
        for m in range(1, max_m + 1)
        for ident in _IDENTITIES.values()
        for params in ident.domain.grid(m)
    ]


# ---------------------------------------------------------------------------
# telescoping re-summation fixtures
# ---------------------------------------------------------------------------

# Each fixture: (index, delta(i, b)).  G(j, b) is the anomaly Omega_index at
# summation length j with a = b + j, and delta is the step G(i) - G(i-1)
# rewritten through the one-step shift recurrence.  The check below verifies
# sum_{i=1..m} delta(i) == G(m) exactly.

def _d_psi0_ak_over_k(i, b):
    acc = Fraction(1, i) * _p0(b + 1)
    rat = sum((Fraction(1, k) / (b + i - k) for k in range(1, i)), Fraction(0))
    return acc + rat


def _d_psi0_over_ak(i, b):
    acc = 1 / (i + b) * _p0(Fraction(1))
    rat = sum((1 / ((k + b) * (i - k)) for k in range(1, i)), Fraction(0))
    return acc + rat


def _d_psi0_over_ak2(i, b):
    acc = 1 / (i + b) ** 2 * _p0(Fraction(1))
    rat = sum((1 / ((k + b) ** 2 * (i - k)) for k in range(1, i)), Fraction(0))
    return acc + rat


def _d_psi0sq_over_ak(i, b):
    # psi0^2(x+1) - psi0^2(x) = 2 psi0(x)/x + 1/x^2 with x = i - k
    acc = 1 / (i + b) * _p0(Fraction(1)) ** 2
    total = acc
    for k in range(1, i):
        x = Fraction(i - k)
        total = total + 1 / (k + b) * (
            2 * Fraction(1, x) * _p0(x) + Fraction(1, x * x)
        )
    return total


def _d_psi1_ak_over_k(i, b):
    acc = Fraction(1, i) * _p1(b + 1)
    rat = sum((-Fraction(1, k) / (b + i - k) ** 2 for k in range(1, i)), Fraction(0))
    return acc + rat


def _d_psi1_over_ak(i, b):
    acc = 1 / (i + b) * _p1(Fraction(1))
    rat = sum((-1 / ((k + b) * (i - k) ** 2) for k in range(1, i)), Fraction(0))
    return acc + rat


def _d_psi0_ak_over_k2(i, b):
    acc = Fraction(1, i * i) * _p0(b + 1)
    rat = sum((Fraction(1, k * k) / (b + i - k) for k in range(1, i)), Fraction(0))
    return acc + rat


def _d_psi0_psi0ak_over_ak(i, b):
    total = 1 / (i + b) * _p0(Fraction(1)) * _p0(i + b)
    for k in range(1, i):
        total = total + 1 / ((k + b) * (i - k)) * _p0(k + b)
    return total


def _d_psi0_psi0ak_over_k(i, b):
    total = Fraction(1, i) * _p0(Fraction(i)) * _p0(b + 1)
    for k in range(1, i):
        total = total + Fraction(1, k) / (b + i - k) * _p0(Fraction(k))
    return total


def _d_psi0_psi0ak_over_mk(i, b):
    total = Fraction(1, i) * _p0(Fraction(1)) * _p0(i + b)
    for k in range(1, i):
        total = total + Fraction(1, k) * Fraction(1, i - k) * _p0(k + b)
    return total


def _d_psi0_psi0shift_over_mk(i, b):
    # psi0(k+1) psi0(k+b+1) - psi0(k) psi0(k+b) = psi0(k+b+1)/k + psi0(k)/(k+b)
    total = Fraction(1, i) * _p0(Fraction(1)) * _p0(b + 1)
    for k in range(1, i):
        total = total + Fraction(1, i - k) * (
            Fraction(1, k) * _p0(k + b + 1) + 1 / (k + b) * _p0(Fraction(k))
        )
    return total


_FIXTURES = {
    "tele_psi0_ak_over_k": (2, _d_psi0_ak_over_k),
    "tele_psi0_over_ak": (1, _d_psi0_over_ak),
    "tele_psi0_over_ak2": (7, _d_psi0_over_ak2),
    "tele_psi0sq_over_ak": (8, _d_psi0sq_over_ak),
    "tele_psi1_ak_over_k": (18, _d_psi1_ak_over_k),
    "tele_psi1_over_ak": (17, _d_psi1_over_ak),
    "tele_psi0_ak_over_k2": (9, _d_psi0_ak_over_k2),
    "tele_psi0_psi0ak_over_ak": (13, _d_psi0_psi0ak_over_ak),
    "tele_psi0_psi0ak_over_k": (14, _d_psi0_psi0ak_over_k),
    "tele_psi0_psi0ak_over_mk": (12, _d_psi0_psi0ak_over_mk),
    "tele_psi0_psi0shift_over_mk": (11, _d_psi0_psi0shift_over_mk),
}


# Every fixture needs b > 0; the suite checks each at m = 1.._TELESCOPE_MAX_M.
_TELESCOPE = _Domain((_positive("b"),), lambda m: [{"b": b} for b in (1, 2, 3, Fraction(1, 2))])
_TELESCOPE_MAX_M = 6


def telescope_grid():
    """Telescope cases used by the verification suite, one IdentityCase per
    (fixture id, m, b): every fixture at m = 1.._TELESCOPE_MAX_M and each b
    of the telescope grid."""
    return [
        case(fixture_id, m, **params)
        for fixture_id in _FIXTURES
        for m in range(1, _TELESCOPE_MAX_M + 1)
        for params in _TELESCOPE.grid(m)
    ]


def resummation_telescope_check(fixture_id: str, m: int, b) -> ConstPoly:
    """Residual G(m) - sum_{i=1..m} (G(i) - G(i-1)); must be zero."""
    if fixture_id not in _FIXTURES:
        raise KeyError(f"unknown telescope fixture {fixture_id!r}")
    cs = case(fixture_id, m, b=b)
    _check_domain(cs, _TELESCOPE)
    index, delta = _FIXTURES[fixture_id]
    total = ZERO
    for i in range(1, m + 1):
        total = total + delta(i, cs.b)
    return omega(index, m, a=cs.b + m) - total


# ---------------------------------------------------------------------------
# the verification suite
# ---------------------------------------------------------------------------

_DEGENERACY_MAX_M = 20


def _params_dict(cs: IdentityCase) -> dict:
    """A case's m, then each parameter it sets as text, for reports."""
    out = {"m": cs.m}
    for name in ("a", "b", "c", "alpha"):
        v = getattr(cs, name)
        if v is not None:
            out[name] = str(v)
    return out


# The suite's three kinds of job: each calls one entry point, through its
# module global, and returns (check id, params, residual) triples.

def _identity_case(cs: IdentityCase) -> list[tuple[str, dict, ConstPoly]]:
    return [(cs.identity_id, _params_dict(cs), identity_residual(cs))]


def _degeneracies(m: int) -> list[tuple[str, dict, ConstPoly]]:
    return [(name, {"m": m}, residual) for name, residual in degenerate_anomaly_check(m)]


def _telescope(cs: IdentityCase) -> list[tuple[str, dict, ConstPoly]]:
    return [(cs.identity_id, _params_dict(cs),
             resummation_telescope_check(cs.identity_id, cs.m, cs.b))]


# (jobs, owners) of the suite being checked: job i is evaluated by process
# owners[i], 0 being the caller.  Set before the pool forks, so that its
# workers inherit it.
_suite = None


def _share(owner: int) -> list[list[tuple]]:
    """The outcomes of the jobs that process `owner` evaluates, in order: per
    job, its (check id, params, is_zero, residual text if nonzero) tuples."""
    jobs, owners = _suite
    return [
        [(check_id, params, (ok := residual.is_zero()), None if ok else residual.to_text())
         for check_id, params, residual in evaluate(arg)]
        for (evaluate, arg), o in zip(jobs, owners) if o == owner
    ]


def identity_checks(max_m: int) -> list[tuple[str, dict, bool, Optional[str]]]:
    """(check id, params, is_zero, residual text if nonzero) for every case of
    the verification suite, in order: the identity grid up to max_m, then the
    degeneracy relations, then the telescopes.  Each residual must be zero.

    A job is one call of an entry point (`identity_residual`,
    `degenerate_anomaly_check`, `resummation_telescope_check`).  With k usable
    CPUs (`fileio._fork_workers`), process p evaluates jobs p, p + k, p + 2k,
    ... of each of those three families: the calling process is p = 0, so it
    reaches every entry point, and k - 1 forked workers take the other shares.
    Only the outcomes cross processes, and an exception in a worker is raised
    here.  With one usable CPU every job runs here."""
    global _suite
    families = [
        [(_identity_case, cs) for cs in default_grid(max_m=max_m)],
        [(_degeneracies, m) for m in range(1, _DEGENERACY_MAX_M + 1)],
        [(_telescope, cs) for cs in telescope_grid()],
    ]
    processes = _fork_workers(max(map(len, families)))
    owners = [j % processes for family in families for j in range(len(family))]
    _suite = ([job for family in families for job in family], owners)
    try:
        if processes == 1:
            shares = [_share(0)]
        else:
            import multiprocessing

            with multiprocessing.get_context("fork").Pool(processes - 1) as pool:
                others = pool.map_async(_share, range(1, processes), chunksize=1)
                shares = [_share(0), *others.get()]
    finally:
        _suite = None
    pending = [iter(share) for share in shares]
    return [outcome for o in owners for outcome in next(pending[o])]

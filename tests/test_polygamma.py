"""Polygamma tests: exact finite sums, shift recurrence, numeric cross-checks
of psi_exact and of psi_numeric."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bureshall.cumulants import _DPS
from bureshall.polygamma import _DIGITS, HalfInteger, psi_exact, psi_numeric
from bureshall.ring import GAMMA, LN2, ZETA2, ZETA3, ConstPoly


class TestHalfInteger:
    def test_of_int(self):
        assert HalfInteger.of(3).twice == 6

    def test_of_fraction(self):
        assert HalfInteger.of(Fraction(5, 2)).twice == 5
        assert HalfInteger.of(Fraction(6, 2)).twice == 6

    def test_rejects_thirds(self):
        with pytest.raises(ValueError):
            HalfInteger.of(Fraction(1, 3))

    def test_arithmetic(self):
        # half-integers are Fractions; `of` parses the results of their arithmetic
        h = Fraction(5, 2)
        assert HalfInteger.of(h + 1).twice == 7
        assert HalfInteger.of(h + Fraction(-1, 2)).twice == 4
        assert psi_exact(0, h + 1) == psi_exact(0, HalfInteger(7))


@pytest.mark.parametrize("order, arg, expected", [
    (0, 1, -GAMMA),
    (1, 1, ZETA2),
    (2, 1, -2 * ZETA3),
    (0, Fraction(1, 2), -GAMMA - 2 * LN2),
    (1, Fraction(1, 2), 3 * ZETA2),
    (2, Fraction(1, 2), -14 * ZETA3),
], ids=["psi0(1)", "psi1(1)", "psi2(1)", "psi0(1/2)", "psi1(1/2)", "psi2(1/2)"])
def test_start_values(order, arg, expected):
    """psi_k(1) and psi_k(1/2): with the shift recurrence these fix psi_exact
    at every positive half-integer."""
    assert psi_exact(order, arg) == expected


class TestPsiExactExamples:
    def test_psi0_at_1(self):
        assert psi_exact(0, 1) == -GAMMA

    def test_psi0_at_5_halves(self):
        assert psi_exact(0, Fraction(5, 2)) == -GAMMA - 2 * LN2 + Fraction(8, 3)

    def test_psi1_at_1(self):
        assert psi_exact(1, 1) == ZETA2

    def test_psi2_at_half(self):
        assert psi_exact(2, Fraction(1, 2)) == -14 * ZETA3

    def test_psi1_at_half(self):
        assert psi_exact(1, Fraction(1, 2)) == 3 * ZETA2

    def test_degree_is_one(self):
        for order in (0, 1, 2):
            for twice in (1, 2, 5, 17):
                assert psi_exact(order, HalfInteger(twice)).total_degree() <= 1

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            psi_exact(0, 0)
        with pytest.raises(ValueError):
            psi_exact(1, Fraction(-1, 2))

    def test_order_rejected(self):
        with pytest.raises(ValueError):
            psi_exact(3, 1)


class TestCache:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_equal_arguments_share_values(self, k):
        # an int and a Fraction of equal value hash alike: one cache entry
        assert psi_exact(k, 3) is psi_exact(k, Fraction(3))
        assert psi_exact(k, Fraction(7, 2)) == psi_exact(k, HalfInteger(7))

    @pytest.mark.parametrize("order, arg", [(0, 0), (0, Fraction(1, 3)), (3, 1)],
                             ids=["argument 0", "argument 1/3", "order 3"])
    def test_rejected_on_every_call(self, order, arg):
        # the cache keeps no exceptions, so a repeated call is checked again
        for _ in range(2):
            with pytest.raises(ValueError):
                psi_exact(order, arg)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=2),
    twice_z=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=50),
)
def test_shift_recurrence_exact(k, twice_z, n):
    """psi_k(z+n) - psi_k(z) == (-1)^k k! sum_{i<n} (z+i)^-(k+1), exactly."""
    z = Fraction(twice_z, 2)
    lhs = psi_exact(k, z + n) - psi_exact(k, z)
    total = sum(
        (Fraction(1) / (z + i) ** (k + 1) for i in range(n)), Fraction(0)
    )
    rhs = ConstPoly.const((-1) ** k * math.factorial(k) * total)
    assert (lhs - rhs).is_zero()


def test_exact_vs_float_consistency():
    """psi_exact evaluated at 30 digits agrees with mpmath.polygamma at 30
    digits on half-integers in (0, 200]."""
    args = [HalfInteger(t) for t in range(1, 61)] + [
        HalfInteger(t) for t in range(61, 401, 20)
    ]
    with mpmath.workdps(30):
        for k in (0, 1, 2):
            for h in args:
                exact = float(psi_exact(k, h).evalf(30))
                ref = float(mpmath.polygamma(k, mpmath.mpf(h.twice) / 2))
                assert abs(ref - exact) <= 1e-12 * max(1.0, abs(exact)), (k, h)


_NUMERIC_ARGS = [Fraction(t, 2) for t in range(1, 121)] + [
    Fraction(2001, 2), Fraction(10 ** 6), Fraction(2 * 10 ** 12 + 1, 2)]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_numeric_vs_mpmath(k):
    """psi_numeric is within 10^-(_DIGITS - 5) of mpmath.psi at 80 digits,
    both where it shifts the argument (x < 40) and where it sums the
    asymptotic series at the argument itself.  That is well inside the
    10^-(_DPS + 5) the numeric cumulants need, and tight enough to catch a
    series cut short."""
    assert _DIGITS - 5 >= _DPS + 5
    with mpmath.workdps(80):
        for x in _NUMERIC_ARGS:
            ref = mpmath.psi(k, mpmath.mpf(x.numerator) / x.denominator)
            got = psi_numeric(k, x)
            error = abs(mpmath.mpf(got.numerator) / got.denominator - ref) / abs(ref)
            assert error <= mpmath.mpf(10) ** -(_DIGITS - 5), (k, x)


@pytest.mark.parametrize("order, arg", [
    (0, 0), (1, Fraction(-1, 2)), (0, Fraction(1, 3)), (2, Fraction(7, 4)), (3, 1),
], ids=["argument 0", "argument -1/2", "argument 1/3", "argument 7/4", "order 3"])
def test_numeric_rejects_as_exact(order, arg):
    # psi_numeric parses its arguments as psi_exact does
    for psi in (psi_exact, psi_numeric):
        with pytest.raises(ValueError):
            psi(order, arg)


def test_numeric_takes_ints_and_half_integers():
    assert psi_numeric(1, 3) == psi_numeric(1, Fraction(6, 2)) == psi_numeric(1, HalfInteger(6))

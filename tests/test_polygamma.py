"""Polygamma tests: exact finite sums, shift recurrence, numeric cross-check."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bureshall.polygamma import HalfInteger, psi_exact
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

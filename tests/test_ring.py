"""Exact-ring tests: arithmetic axioms, evaluation, canonical text form."""

import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ring_helpers import mp_value

from bureshall.ring import GAMMA, LN2, ZETA2, ZETA3, ConstPoly


class TestCombineExamples:
    def test_additive_inverse(self):
        assert (GAMMA - GAMMA).is_zero()

    def test_scalar_distribution(self):
        p = (GAMMA + Fraction(1, 2)) * ConstPoly.const(2)
        assert p == 2 * GAMMA + 1

    def test_hand_expansion(self):
        one_minus_g = ConstPoly.const(1) - GAMMA
        assert one_minus_g * one_minus_g == 1 - 2 * GAMMA + GAMMA ** 2


class TestIsZero:
    def test_zero(self):
        assert ConstPoly().is_zero()

    def test_gamma_minus_gamma(self):
        assert (GAMMA - GAMMA).is_zero()

    def test_structural_not_numeric(self):
        # 822/500 = 1.644 is numerically close to zeta(2) but structurally distinct
        assert not (ZETA2 - Fraction(822, 500)).is_zero()


def _assert_matches_mpmath(poly):
    """evalf() is within 10^-55 of the 60-digit mpmath value, relative to the
    sum of the terms' magnitudes, so that cancellation costs no digits."""
    got = poly.evalf()
    assert isinstance(got, Fraction)
    magnitude = ConstPoly({mono: abs(c) for mono, c in poly.terms.items()})
    with mpmath.workdps(60):
        error = abs(mpmath.mpf(got.numerator) / got.denominator - mp_value(poly, 60))
        assert error <= mpmath.mpf(10) ** -55 * mp_value(magnitude, 60), poly


class TestEval:
    def test_gamma(self):
        _assert_matches_mpmath(GAMMA)
        assert float(GAMMA) == pytest.approx(0.5772157, abs=5e-8)

    def test_zeta2(self):
        _assert_matches_mpmath(ZETA2)
        assert float(ZETA2) == pytest.approx(1.6449341, abs=5e-8)

    def test_linear_combination(self):
        # 2 ln 2 - 7/6
        p = 2 * LN2 - Fraction(7, 6)
        _assert_matches_mpmath(p)
        assert float(p) == pytest.approx(0.2196276944532239, abs=1e-14)

    def test_zeta3(self):
        _assert_matches_mpmath(ZETA3)
        assert float(ZETA3) == pytest.approx(1.2020569031595943, abs=1e-14)


# -- randomized ring properties -------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6), max_denominator=1000
)
monomials = st.tuples(*(st.integers(min_value=0, max_value=1) for _ in range(4)))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(monomials, coeffs, max_size=5))
    return ConstPoly(terms)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150, deadline=None)
@given(polys(), polys())
def test_canonical_form(a, b):
    # equal values built by different routes compare equal and hash equal,
    # a constant and its Fraction value included
    constant = a.terms.get((0, 0, 0, 0), Fraction(0))
    for x, y in (((a + b) - b, a), (ConstPoly(a.terms), a), ((a * 3) * Fraction(1, 3), a),
                 (a - a, ConstPoly()), (ConstPoly.const(constant), constant), (a - a, 0)):
        assert x == y
        assert hash(x) == hash(y)
    assert (a - a).is_zero()


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), st.sampled_from([operator.add, operator.sub, operator.mul]))
def test_eval_is_homomorphism(a, b, op):
    # evaluation at fixed rationals is a ring homomorphism, and exact
    assert op(a, b).evalf() == op(a.evalf(), b.evalf())


@settings(max_examples=150, deadline=None)
@given(polys())
def test_text_round_trip(p):
    assert ConstPoly.from_text(p.to_text()) == p


def test_canonical_text_examples():
    p = Fraction(75, 8) * ZETA3 - Fraction(33, 160) * ZETA2 - Fraction(295, 27)
    assert p.to_text() == "75/8*z3 - 33/160*z2 - 295/27"
    assert ConstPoly().to_text() == "0"
    assert [c.to_text() for c in (GAMMA, LN2, ZETA2, ZETA3)] == ["g", "l2", "z2", "z3"]
    assert (-GAMMA).to_text() == "-g"
    assert (2 * LN2 - Fraction(7, 6)).to_text() == "2*l2 - 7/6"
    assert (GAMMA ** 2 * LN2).to_text() == "g^2*l2"


def test_graded_lex_order():
    # higher total degree first; within a degree z3 > z2 > l2 > g
    p = GAMMA + ZETA3 + GAMMA * GAMMA
    assert p.to_text() == "g^2 + z3 + g"


def test_immutability_of_views():
    p = GAMMA + 1
    view = p.terms
    view.clear()
    assert p == GAMMA + 1


def test_pow_and_degree():
    p = (GAMMA + LN2) ** 3
    assert p == (GAMMA + LN2) * (GAMMA + LN2) * (GAMMA + LN2)
    assert {sum(mono) for mono in p.terms} == {3}
    assert ZETA2 ** 0 == 1
    with pytest.raises(ValueError):
        GAMMA ** -1


def test_eval_high_precision_consistency():
    p = Fraction(75, 8) * ZETA3 - Fraction(33, 160) * ZETA2 - Fraction(295, 27)
    _assert_matches_mpmath(p)
    assert float(p) == pytest.approx(0.004089889907823797, abs=1e-16)

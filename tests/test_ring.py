"""Exact-ring tests: arithmetic axioms, evaluation, canonical text form."""

import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestEval:
    def test_gamma(self):
        assert float(GAMMA.evalf(15)) == pytest.approx(0.5772157, abs=5e-8)

    def test_zeta2(self):
        assert float(ZETA2.evalf(20)) == pytest.approx(1.6449341, abs=5e-8)

    def test_linear_combination(self):
        # 2 ln 2 - 7/6
        value = float((2 * LN2 - Fraction(7, 6)).evalf(30))
        assert value == pytest.approx(0.2196276944532239, abs=1e-14)

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            GAMMA.evalf(14)

    def test_zeta3(self):
        assert float(ZETA3.evalf(30)) == pytest.approx(1.2020569031595943, abs=1e-14)


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
    # equal values built by different routes compare equal and hash equal
    for x, y in (((a + b) - b, a), (ConstPoly(a.terms), a), ((a * 3) * Fraction(1, 3), a),
                 (a - a, ConstPoly())):
        assert x == y
        assert hash(x) == hash(y)
    assert (a - a).is_zero()


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), st.sampled_from([operator.add, operator.sub, operator.mul]))
def test_eval_is_homomorphism(a, b, op):
    combined = op(a, b).evalf(30)
    fa, fb = a.evalf(30), b.evalf(30)
    direct = op(fa, fb)
    scale = max(1.0, abs(float(fa)), abs(float(fb)), abs(float(combined)))
    assert abs(float(combined - direct)) <= 1e-12 * scale


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
    assert p.total_degree() == 3
    assert [c.total_degree() for c in (GAMMA, LN2, ZETA2, ZETA3)] == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        GAMMA ** -1


def test_eval_high_precision_consistency():
    p = Fraction(75, 8) * ZETA3 - Fraction(33, 160) * ZETA2 - Fraction(295, 27)
    v30 = p.evalf(30)
    v60 = p.evalf(60)
    assert abs(float(v30 - v60)) < 1e-25
    with mpmath.workdps(40):
        assert float(v60) == pytest.approx(0.004089889907823797, abs=1e-16)

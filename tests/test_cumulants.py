"""Closed-form cumulant tests: exact polynomial values, degeneracies,
conversions, and the trace factorization behind kappa3_T and the
third-moment conversion."""

import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bureshall import cumulants
from bureshall.cumulants import (
    _DPS,
    DegenerateEnsembleError,
    EnsembleDims,
    cumulant_set,
    kappa1,
    kappa2,
    kappa3,
    kappa3_unconstrained,
    moments_cumulants_convert,
    skewness,
    third_moment_conversion,
    unconstrained_moments,
)
from bureshall.polygamma import psi_numeric
from bureshall.ring import GAMMA, LN2, ZETA2, ZETA3, ConstPoly


class TestDims:
    def test_alpha_and_d(self):
        d = EnsembleDims(2, 3)
        assert d.alpha == Fraction(1, 2)
        assert d.d == 4  # mn - m^2/2
        d2 = EnsembleDims(3, 4)
        assert d2.d == Fraction(15, 2)
        assert d2.n_half == Fraction(9, 2)

    # (what to call, the exception it raises); the record is immutable
    INVALID = [
        (lambda: EnsembleDims(3, 2), ValueError),
        (lambda: EnsembleDims(0, 2), ValueError),
        (lambda: EnsembleDims(2.0, 3), TypeError),
        (lambda: EnsembleDims(Fraction(2), 3), TypeError),
        (lambda: setattr(EnsembleDims(2, 3), "m", 4), AttributeError),
        (lambda: EnsembleDims(2, 3)._replace(m=4), ValueError),
    ]

    def test_validation(self):
        for build, error in self.INVALID:
            with pytest.raises(error):
                build()


class TestDegeneracy:
    def test_all_zero_polynomials_for_m1(self):
        for n in range(1, 51):
            d = EnsembleDims(1, n)
            assert kappa1(d).is_zero()
            assert kappa2(d).is_zero()
            assert kappa3(d).is_zero()

    def test_skewness_raises_for_m1(self):
        with pytest.raises(DegenerateEnsembleError):
            skewness(EnsembleDims(1, 3))

    def test_cumulant_set_m1(self):
        cs = cumulant_set(EnsembleDims(1, 7))
        assert cs.kappa1_f == cs.kappa2_f == cs.kappa3_f == 0.0
        assert cs.skewness is None and cs.sd is None and cs.skew_coefficient is None


class TestExactValues:
    def test_kappa1_2_2(self):
        assert kappa1(EnsembleDims(2, 2)) == 2 * LN2 - Fraction(7, 6)

    def test_kappa1_2_3(self):
        assert kappa1(EnsembleDims(2, 3)) == 2 * LN2 - Fraction(59, 60)

    def test_kappa2_2_2(self):
        assert kappa2(EnsembleDims(2, 2)) == Fraction(13, 8) * ZETA2 - Fraction(95, 36)

    def test_kappa2_2_3(self):
        expected = Fraction(5, 4) * ZETA2 + Fraction(205, 144) - Fraction(259, 75)
        assert kappa2(EnsembleDims(2, 3)) == expected

    def test_kappa3_2_2(self):
        expected = Fraction(75, 8) * ZETA3 - Fraction(33, 160) * ZETA2 - Fraction(295, 27)
        assert kappa3(EnsembleDims(2, 2)) == expected

    def test_text_round_trip_past_int_digit_limit(self):
        # at (50, 100) coefficients outgrow Python's 4300-digit int/str limit;
        # the text form lifts it for itself only
        limit = sys.get_int_max_str_digits()
        d = EnsembleDims(50, 100)
        for k in (kappa1, kappa2, kappa3):
            text = k(d).to_text()
            assert ConstPoly.from_text(text) == k(d)
        assert max(map(len, re.findall(r"\d+", text))) > limit
        assert sys.get_int_max_str_digits() == limit

    def test_floats(self):
        d = EnsembleDims(2, 2)
        assert float(kappa1(d)) == pytest.approx(0.2196276944532239, abs=1e-13)
        assert float(kappa2(d)) == pytest.approx(0.0341289697394790, abs=1e-13)
        assert float(kappa3(d)) == pytest.approx(0.0040898899078238, abs=1e-13)


class TestSkewness:
    def test_value_2_2(self):
        # kappa3/kappa2^(3/2) from the quadrature-validated values
        assert skewness(EnsembleDims(2, 2)) == pytest.approx(0.648675, abs=1e-5)

    def test_asymptotic_halving(self):
        s1 = skewness(EnsembleDims(8, 16))
        s2 = skewness(EnsembleDims(16, 32))
        assert s1 / s2 == pytest.approx(2.0, rel=0.15)

    def test_sign_matches_kappa3(self):
        for m, n in [(2, 2), (3, 3), (4, 6), (8, 16)]:
            assert math.copysign(1, skewness(EnsembleDims(m, n))) == math.copysign(
                1, float(kappa3(EnsembleDims(m, n)))
            )


class TestBoundsAndSigns:
    def test_mean_in_support(self):
        for m in range(2, 9):
            for n in (m, m + 3, 2 * m, 4 * m):
                value = float(kappa1(EnsembleDims(m, n)))
                assert 0.0 < value < math.log(m)

    def test_variance_positive(self):
        for m in range(2, 7):
            for n in (m, m + 1, 3 * m):
                assert float(kappa2(EnsembleDims(m, n))) > 0.0

    def test_cumulant_set_consistency(self):
        dims = EnsembleDims(3, 5)
        cs = cumulant_set(dims)
        assert cs.kappa1_f == pytest.approx(float(kappa1(dims).evalf(_DPS)), abs=1e-12)
        assert cs.kappa2_f == pytest.approx(float(kappa2(dims).evalf(_DPS)), abs=1e-12)
        assert cs.kappa3_f == pytest.approx(float(kappa3(dims).evalf(_DPS)), abs=1e-12)
        assert cs.sd == pytest.approx(math.sqrt(cs.kappa2_f), rel=1e-15)
        assert cs.skewness == pytest.approx(cs.kappa3_f / cs.kappa2_f ** 1.5, rel=1e-14)
        assert cs.skew_coefficient == pytest.approx(cs.skewness / 6, rel=1e-15)


def _exact_set_floats(dims: EnsembleDims) -> tuple:
    """cumulant_set's six floats, taken from the exact ring at _DPS digits."""
    with mpmath.workdps(_DPS):
        v1, v2, v3 = (k(dims).evalf(_DPS) for k in (kappa1, kappa2, kappa3))
        if dims.m < 2:
            return float(v1), float(v2), float(v3), None, None, None
        scale = v2 ** mpmath.mpf("1.5")
        return (float(v1), float(v2), float(v3),
                float(mpmath.sqrt(v2)), float(v3 / scale), float(v3 / (6 * scale)))


class TestNumericPath:
    def test_bit_identical_to_exact_ring(self):
        grid = [(m, n) for m in range(1, 13) for n in range(m, 2 * m + 3)] + [(50, 100)]
        for m, n in grid:
            dims = EnsembleDims(m, n)
            cs = cumulant_set(dims)
            got = (cs.kappa1_f, cs.kappa2_f, cs.kappa3_f, cs.sd, cs.skewness,
                   cs.skew_coefficient)
            assert got == _exact_set_floats(dims), (m, n)
            if m == 1:
                assert got == (0.0, 0.0, 0.0, None, None, None)

    def test_six_psi_calls_per_set(self, monkeypatch):
        # psi0, psi1, psi2 at d + 1 and at n + 1/2, each once, although
        # kappa2 and kappa3 both use psi1(n + 1/2)
        calls = []

        def counting(k, x):
            calls.append((k, x))
            return psi_numeric(k, x)

        monkeypatch.setattr(cumulants, "psi_numeric", counting)
        for dims in (EnsembleDims(4, 6), EnsembleDims(4, 6), EnsembleDims(30, 61)):
            calls.clear()
            cumulant_set(dims)
            assert len(calls) == len(set(calls)) == 6

    def test_large_dims(self):
        cs = cumulant_set(EnsembleDims(10 ** 4, 10 ** 6))
        for value in (cs.kappa1_f, cs.kappa2_f, cs.kappa3_f, cs.sd, cs.skewness,
                      cs.skew_coefficient):
            assert math.isfinite(value)
        assert cs.kappa2_f > 0

    def test_skewness_halves_up_to_n_2_20(self):
        s = [skewness(EnsembleDims(2 ** (k - 1), 2 ** k)) for k in range(12, 21)]
        for big, small in zip(s, s[1:]):
            assert big / small == pytest.approx(2.0, abs=1e-6)
        # n * skewness approaches -10 sqrt(2) / 3 along m = n/2
        assert 2 ** 20 * s[-1] == pytest.approx(-10 * math.sqrt(2) / 3, rel=1e-8)


class TestConversions:
    def test_centered_symmetric(self):
        assert moments_cumulants_convert((0, 1, 0), "moments_to_cumulants") == (0, 1, 0)

    def test_direct_substitution(self):
        assert moments_cumulants_convert((1, 2, 4), "moments_to_cumulants") == (1, 1, 0)

    def test_zero(self):
        assert moments_cumulants_convert((0, 0, 0), "cumulants_to_moments") == (0, 0, 0)

    def test_length_and_direction_validation(self):
        with pytest.raises(ValueError):
            moments_cumulants_convert((1, 2), "moments_to_cumulants")
        with pytest.raises(ValueError):
            moments_cumulants_convert((1, 2, 3), "sideways")

    def test_exact_ring_round_trip(self):
        triple = (GAMMA, ZETA2 - 1, 2 * LN2)
        back = moments_cumulants_convert(
            moments_cumulants_convert(triple, "moments_to_cumulants"),
            "cumulants_to_moments",
        )
        assert all((x - y).is_zero() for x, y in zip(back, triple))

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*(st.floats(-10, 10) for _ in range(3))))
    def test_float_round_trip(self, triple):
        back = moments_cumulants_convert(
            moments_cumulants_convert(triple, "cumulants_to_moments"),
            "moments_to_cumulants",
        )
        for x, y in zip(back, triple):
            assert x == pytest.approx(y, abs=1e-8)


class TestUnconstrainedThirdCumulant:
    def test_exact_match_with_gamma_oracle_m1(self):
        for n in (1, 2, 3, 5):
            dims = EnsembleDims(1, n)
            moments = unconstrained_moments(dims)
            oracle = moments_cumulants_convert(moments, "moments_to_cumulants")[2]
            assert (kappa3_unconstrained(dims) - oracle).is_zero()

    def test_exact_match_with_factorization(self):
        # the closed form kappa3_T against kappa3 of the moments of
        # T = theta ln theta - theta S, built from kappa1..kappa3
        for m in range(1, 9):
            for n in range(m, m + 9):
                dims = EnsembleDims(m, n)
                moments = unconstrained_moments(dims)
                oracle = moments_cumulants_convert(moments, "moments_to_cumulants")[2]
                assert (kappa3_unconstrained(dims) - oracle).is_zero(), (m, n)

    def test_float_value_1_1(self):
        assert float(kappa3_unconstrained(EnsembleDims(1, 1))) == pytest.approx(
            4.323829, abs=1e-6
        )

    def test_float_value_2_2(self):
        # a direct 2-D quadrature of E_h[T^k] at (2, 2) gives the same value
        assert float(kappa3_unconstrained(EnsembleDims(2, 2))) == pytest.approx(
            43.81315693523868, rel=1e-13
        )


class TestThirdMomentConversion:
    def test_m1_collapse(self):
        for n in (1, 2, 5):
            dims = EnsembleDims(1, n)
            t3 = float(unconstrained_moments(dims)[2])
            assert third_moment_conversion(t3, dims) == pytest.approx(0.0, abs=1e-9)

    def test_m1_collapse_exact_in_ring(self):
        # with E_f[S] = E_f[S^2] = E_f[S^3] = 0 the conversion reduces to
        # E_h[T^3] == (d)_3 (psi0^3 + 3 psi0 psi1 + psi2)(d + 3), exactly
        from bureshall.polygamma import psi_exact

        for n in (1, 2, 4):
            dims = EnsembleDims(1, n)
            d = dims.d
            poch3 = d * (d + 1) * (d + 2)
            arg = dims.d + 3
            p0, p1, p2 = (psi_exact(k, arg) for k in (0, 1, 2))
            rhs = ConstPoly.const(poch3) * (p0 ** 3 + 3 * p0 * p1 + p2)
            lhs = unconstrained_moments(dims)[2]
            assert (lhs - rhs).is_zero()

    def test_inverts_exact_moments(self):
        for m, n in ((2, 2), (2, 5), (3, 4), (4, 6), (5, 9), (8, 16)):
            dims = EnsembleDims(m, n)
            t3 = float(unconstrained_moments(dims)[2])
            mu3 = moments_cumulants_convert(
                (kappa1(dims), kappa2(dims), kappa3(dims)), "cumulants_to_moments"
            )[2]
            assert third_moment_conversion(t3, dims) == pytest.approx(
                float(mu3), rel=1e-12
            ), (m, n)

    def test_entropy_moments_match_cumulants(self):
        dims = EnsembleDims(3, 4)
        mu = moments_cumulants_convert(
            (kappa1(dims), kappa2(dims), kappa3(dims)), "cumulants_to_moments"
        )
        back = moments_cumulants_convert(mu, "moments_to_cumulants")
        assert (back[0] - kappa1(dims)).is_zero()
        assert (back[1] - kappa2(dims)).is_zero()
        assert (back[2] - kappa3(dims)).is_zero()

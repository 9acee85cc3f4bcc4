"""Quadrature-oracle tests: normalization mass and cumulants vs closed forms."""

import math

import pytest

from bureshall.cumulants import EnsembleDims, kappa1, kappa2, kappa3
from bureshall.quadrature import (
    QuadratureResult,
    _quad,
    normalization_check,
    normalization_constant,
    oracle_cumulants,
)


class TestNormalization:
    @pytest.mark.parametrize("n,tol", [(2, 1e-10), (3, 1e-10), (5, 1e-10), (10, 1e-10)])
    def test_m2(self, n, tol):
        res = normalization_check(EnsembleDims(2, n))
        assert res.value == pytest.approx(1.0, abs=tol)
        assert abs(res.value - 1.0) <= max(res.error_estimate, tol)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_m3(self, n):
        res = normalization_check(EnsembleDims(3, n))
        assert res.value == pytest.approx(1.0, abs=1e-7)

    def test_unsupported_m(self):
        with pytest.raises(ValueError):
            normalization_check(EnsembleDims(4, 4))

    def test_constant_m2_n2(self):
        # C = pi/2 for (m, n) = (2, 2)
        assert normalization_constant(EnsembleDims(2, 2)) == pytest.approx(
            math.pi / 2, rel=1e-14
        )


class TestOracleCumulants:
    def test_m2_n2_values(self):
        res = oracle_cumulants(EnsembleDims(2, 2))
        assert res[0].value == pytest.approx(0.2196276944532239, abs=1e-10)
        assert res[2].value == pytest.approx(0.0040898899078238, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_m2_matches_formulas(self, n):
        dims = EnsembleDims(2, n)
        res = oracle_cumulants(dims)
        exact = [float(kappa1(dims)), float(kappa2(dims)), float(kappa3(dims))]
        for r, e in zip(res, exact):
            assert abs(r.value - e) <= 1e-8

    @pytest.mark.parametrize("n", [3, 4])
    def test_m3_matches_formulas(self, n):
        dims = EnsembleDims(3, n)
        res = oracle_cumulants(dims)
        exact = [float(kappa1(dims)), float(kappa2(dims)), float(kappa3(dims))]
        for r, e in zip(res, exact):
            assert abs(r.value - e) <= 1e-6

    def test_result_metadata(self):
        res = oracle_cumulants(EnsembleDims(2, 3))
        for r in res:
            assert isinstance(r, QuadratureResult)
            assert r.error_estimate >= 0
            assert r.evaluations > 0
            assert r.converged


class TestStability:
    def test_singular_endpoint_case(self):
        # n = m means alpha = -1/2: integrable endpoint singularities
        res = normalization_check(EnsembleDims(2, 2))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_missed_target_is_unconverged(self):
        # an interior inverse-square-root singularity defeats tanh-sinh: its
        # error estimate stays near 1e-3
        def f(x):
            return 1.0 / math.sqrt(abs(x - 0.7))

        _, error, converged = _quad(f, 0.0, math.pi / 2, 1e-10)
        assert error > 1e-10
        assert not converged
        assert _quad(f, 0.0, math.pi / 2, 2 * error)[2]

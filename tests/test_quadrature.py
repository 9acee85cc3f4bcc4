"""Quadrature-oracle tests: normalization mass and cumulants vs closed forms."""

import math

import pytest

from bureshall.cli import _ORACLE_GRID
from bureshall.cumulants import EnsembleDims, kappa1, kappa2, kappa3
from bureshall.quadrature import (
    QuadratureResult,
    _quad,
    moment_oracle,
    normalization_check,
    normalization_constant,
    oracle_cumulants,
)

ORACLE_DIMS = [EnsembleDims(m, n) for m, (ns, _) in _ORACLE_GRID.items() for n in ns]


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

    @pytest.mark.parametrize("m", [2, 3])
    def test_constant_matches_gamma_functions(self, m):
        # the exact constant against its Gamma-function formula at 30 digits
        import mpmath

        for n in range(m, 13):
            dims = EnsembleDims(m, n)
            with mpmath.workdps(30):
                a = mpmath.mpf(int(2 * dims.alpha)) / 2
                ref = mpmath.mpf(2) ** (-m * (m + 2 * a)) * mpmath.pi ** (mpmath.mpf(m) / 2)
                ref /= mpmath.gamma(m * (m + 2 * a + 1) / 2)
                for i in range(1, m + 1):
                    ref *= mpmath.gamma(i + 1) * mpmath.gamma(i + 2 * a + 1) / mpmath.gamma(
                        i + a + 0.5)
                ref = float(ref)
            assert abs(normalization_constant(dims) - ref) <= 4 * math.ulp(ref), n


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


class TestFusedPass:
    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    def test_matches_single_power_passes(self, dims):
        # the mass and the three moments from one pass agree with a pass per
        # power of the same integrator, within both error estimates
        fused = moment_oracle(dims)
        for k in range(4):
            single, = moment_oracle(dims, (k,))
            assert abs(fused[k].value - single.value) <= min(
                fused[k].error_estimate, single.error_estimate), k
            assert fused[k].converged and single.converged
            assert single.evaluations <= fused[k].evaluations


class TestStability:
    def test_singular_endpoint_case(self):
        # n = m means alpha = -1/2: integrable endpoint singularities
        res = normalization_check(EnsembleDims(2, 2))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_missed_target_is_unconverged(self):
        # an interior inverse-square-root singularity defeats tanh-sinh: its
        # error estimate stays near 1e-3
        def f(x):
            return [1.0 / math.sqrt(abs(x - 0.7))]

        _, (error,), (converged,) = _quad(f, 0.0, math.pi / 2, 1e-10)
        assert error > 1e-10
        assert not converged
        assert _quad(f, 0.0, math.pi / 2, 2 * error)[2] == [True]

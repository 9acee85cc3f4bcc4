"""Distribution tests: standardization, Gaussian/corrected densities,
moment preservation, histogram comparison."""

import math

import numpy as np
import pytest
from ring_helpers import mp_value
from scipy import integrate

from bureshall.cumulants import DegenerateEnsembleError, EnsembleDims, cumulant_set, kappa3
from bureshall.distribution import (
    DensityComparison,
    density_comparison,
    edgeworth_pdf,
    gaussian_pdf,
    write_density_csv,
)
from bureshall.sampler import ChainConfig, mcmc_chain


class TestStandardize:
    def test_m1_rejected(self):
        # S is identically 0 at m = 1, so there is nothing to standardize by
        with pytest.raises(DegenerateEnsembleError):
            density_comparison(np.zeros(20_000), EnsembleDims(1, 2))

    def test_mcmc_samples_standardized(self):
        dims = EnsembleDims(4, 6)
        cfg = ChainConfig(samples=40000, burn_in=2000, thinning=10, chain_count=50, seed=17)
        batch = mcmc_chain(dims, cfg)
        cs = cumulant_set(dims)
        x = (batch.entropies - cs.kappa1_f) / cs.sd
        assert abs(x.mean()) < 4 / math.sqrt(len(x)) * 2  # crude 4-SE-ish bound
        assert x.std() == pytest.approx(1.0, abs=0.02)


class TestGaussian:
    def test_values(self):
        assert gaussian_pdf(0.0) == pytest.approx(0.3989423, abs=1e-7)
        assert gaussian_pdf(1.0) == pytest.approx(0.2419707, abs=1e-7)
        assert gaussian_pdf(-1.0) == gaussian_pdf(1.0)
        assert gaussian_pdf(3.0) == pytest.approx(0.0044318, abs=1e-7)

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(gaussian_pdf(xs), [0.2419707, 0.3989423, 0.2419707],
                                   atol=1e-7)


def _coef(m: int, n: int) -> float:
    return cumulant_set(EnsembleDims(m, n)).skew_coefficient


class TestEdgeworth:
    def test_center_equals_gaussian(self):
        assert edgeworth_pdf(0.0, _coef(2, 2)) == pytest.approx(0.3989423, abs=1e-7)

    def test_correction_vanishes_at_sqrt3(self):
        x = math.sqrt(3.0)
        for coef in (_coef(2, 2), _coef(4, 6)):
            assert edgeworth_pdf(x, coef) == pytest.approx(gaussian_pdf(x), abs=1e-15)

    def test_value_at_one_for_2_2(self):
        # phi(1) * (1 + skewness/6 * (1 - 3)), skewness(2,2) = 0.648675
        assert edgeworth_pdf(1.0, _coef(2, 2)) == pytest.approx(0.189651, abs=1e-5)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (4, 6)])
    def test_moment_preservation(self, m, n):
        coef = _coef(m, n)
        mass, _ = integrate.quad(lambda x: edgeworth_pdf(x, coef), -10, 10, limit=200)
        mean, _ = integrate.quad(lambda x: x * edgeworth_pdf(x, coef), -10, 10, limit=200)
        var, _ = integrate.quad(lambda x: x * x * edgeworth_pdf(x, coef), -10, 10, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(0.0, abs=1e-6)
        assert var == pytest.approx(1.0, abs=1e-6)

    def test_negative_tail_not_clipped(self):
        # the cubic correction must be allowed to push the tail below zero
        xs = np.linspace(-8, -3, 200)
        assert edgeworth_pdf(xs, _coef(2, 2)).min() < 0


class TestDensityComparison:
    def test_synthetic_gaussian_recovery(self):
        from bureshall.cumulants import kappa1, kappa2

        dims = EnsembleDims(4, 6)
        mu = float(mp_value(kappa1(dims), 40))
        sd = math.sqrt(float(mp_value(kappa2(dims), 40)))
        rng = np.random.default_rng(123)
        samples = mu + sd * rng.standard_normal(200_000)
        comp = density_comparison(samples, dims)
        assert comp.l1_gaussian < 0.05

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            density_comparison(np.zeros(9_999), EnsembleDims(2, 2))

    def test_small_dims_not_much_worse(self):
        dims = EnsembleDims(2, 2)
        cfg = ChainConfig(samples=100_000, burn_in=2000, thinning=10, chain_count=100, seed=8)
        batch = mcmc_chain(dims, cfg)
        comp = density_comparison(batch.entropies, dims)
        assert isinstance(comp, DensityComparison)
        assert np.isfinite(comp.l1_gaussian) and np.isfinite(comp.l1_edgeworth)
        assert comp.l1_edgeworth <= 1.10 * comp.l1_gaussian

    def test_csv_export(self, tmp_path):
        dims = EnsembleDims(4, 6)
        cfg = ChainConfig(samples=20_000, burn_in=1000, thinning=5, chain_count=40, seed=19)
        comp = density_comparison(mcmc_chain(dims, cfg).entropies, dims)
        path = tmp_path / "grid.csv"
        write_density_csv(comp.grid, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,gaussian,edgeworth,histogram"
        assert len(lines) == len(comp.grid.xs) + 1


class TestCumulantDecayCurve:
    def test_negative_with_decaying_magnitude(self):
        for ratio in (1, 2, 3):
            values = [float(kappa3(EnsembleDims(m, ratio * m))) for m in range(3, 13)]
            assert all(v < 0 for v in values)
            mags = [abs(v) for v in values]
            assert all(mags[i + 1] < mags[i] for i in range(1, len(mags) - 1))

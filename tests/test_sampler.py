"""Sampler tests: density evaluation, chain determinism, distributional
agreement with the closed forms, matrix-model backend, k-statistics, CSV."""

import hashlib
import math
import os

import numpy as np
import pytest
from scipy import stats

from bureshall import fileio, sampler
from bureshall.cumulants import EnsembleDims, kappa1
from bureshall.sampler import (
    ChainConfig,
    SampleBatch,
    _entropies,
    _log_density,
    k_statistics,
    mcmc_chain,
    sample_matrix_model_batch,
    write_sample_csv,
)

K1_22 = 0.2196276944532239  # 2 ln 2 - 7/6


def log_density(x, dims: EnsembleDims) -> float:
    """The unconstrained log-density at one point x (w = alpha)."""
    x = np.array([x], dtype=float)
    pairs = np.concatenate(np.triu_indices(dims.m, 1))
    logp, _ = _log_density(x, np.log(x), float(dims.alpha), pairs)
    return float(logp[0])


class TestLogDensity:
    def test_single_particle(self):
        # m = n = 1: alpha = -1/2, x = 1: alpha*ln(1) - 1
        assert log_density([1.0], EnsembleDims(1, 1)) == pytest.approx(-1.0)

    def test_two_particles(self):
        expected = math.log(1 / 3) - 0.5 * (math.log(1) + math.log(2)) - 3.0
        value = log_density([1.0, 2.0], EnsembleDims(2, 2))
        assert value == pytest.approx(expected, abs=1e-14)

    def test_permutation_symmetry(self):
        dims = EnsembleDims(2, 2)
        a = log_density([1.0, 2.0], dims)
        b = log_density([2.0, 1.0], dims)
        assert a == pytest.approx(b, abs=0)


class TestProjectionAndEntropy:
    def test_entropy_endpoints(self):
        assert _entropies(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0
        m = 4
        assert _entropies(np.full((1, m), 1.0 / m))[0] == pytest.approx(math.log(m))
        assert _entropies(np.array([[0.5, 0.5]]))[0] == pytest.approx(math.log(2))

    def test_entropy_bounds_on_random_projections(self):
        rng = np.random.default_rng(0)
        x = rng.gamma(0.7, size=(50, 3))
        s = _entropies(x / x.sum(axis=1, keepdims=True))
        assert np.all((0.0 <= s) & (s <= math.log(3) + 1e-12))

    def test_blocks_match_whole_array(self, monkeypatch):
        # entropies are taken 16 rows at a time here; 50 rows end in a
        # partial block, and the pure spectra's -0.0 still turns into 0.0
        monkeypatch.setattr(sampler, "_ENTROPY_BLOCK", 16)
        rng = np.random.default_rng(4)
        x = rng.gamma(0.7, size=(50, 3))
        x[[3, 17, 49], 1:] = 0.0
        lam = x / x.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            whole = -np.where(lam > 0, lam * np.log(lam), 0.0).sum(axis=1) + 0.0
        s = _entropies(lam)
        assert s.tobytes() == whole.tobytes()
        assert list(s[[3, 17, 49]]) == [0.0] * 3
        assert not np.signbit(s).any()

    def test_entropy_T_examples(self):
        # T = sum x ln x at x = (1), (e) and (2, 2), from theta = sum x and the
        # entropy S of x / theta; entropies_T reads nothing else
        batch = SampleBatch(spectra=None, thetas=np.array([1.0, math.e, 4.0]),
                            entropies=np.array([0.0, 0.0, math.log(2)]),
                            chain_index=None, step_index=None, provenance=None)
        t = batch.entropies_T()
        assert t[0] == 0.0
        assert t[1] == pytest.approx(math.e)
        assert t[2] == pytest.approx(4 * math.log(2))


class TestKStatistics:
    def test_symmetric_data(self):
        st = k_statistics([1, 2, 3])
        assert (st.k1, st.k2, st.k3) == (2.0, 1.0, 0.0)
        assert math.isnan(st.se1)

    def test_unbiased_formula_hand_check(self):
        # N=4, data (0,0,0,1): k3 = N^2/((N-1)(N-2)) * mean cubed deviation = 1/4
        st = k_statistics([0, 0, 0, 1])
        assert st.k1 == pytest.approx(0.25)
        assert st.k2 == pytest.approx(0.25)
        assert st.k3 == pytest.approx(0.25)

    def test_constant_list(self):
        st = k_statistics([5.0] * 200)
        assert (st.k1, st.k2, st.k3) == (5.0, 0.0, 0.0)
        assert st.se1 == st.se2 == st.se3 == 0.0

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            k_statistics([1.0, 2.0])

    def test_unbiasedness_of_k2_k3_monte_carlo(self):
        # average of k2, k3 over many small exponential samples matches the
        # population cumulants (1 and 2) much better than the biased moments
        rng = np.random.default_rng(42)
        k2s, k3s = [], []
        for _ in range(4000):
            sample = rng.exponential(size=8)
            st = k_statistics(sample)
            k2s.append(st.k2)
            k3s.append(st.k3)
        assert np.mean(k2s) == pytest.approx(1.0, abs=0.02)
        assert np.mean(k3s) == pytest.approx(2.0, abs=0.1)

    def test_ses_present_for_long_input(self):
        rng = np.random.default_rng(1)
        st = k_statistics(rng.normal(size=5000))
        assert st.se1 == pytest.approx(1 / math.sqrt(5000), rel=0.3)
        assert all(np.isfinite([st.se1, st.se2, st.se3]))

    def test_chain_major_batches_of_ar1_chains(self):
        # 64 stationary unit-variance AR(1) chains, laid out step-major as
        # mcmc_chain lays out its draws; the SE of the grand mean is known
        phi, steps, chains = 0.99, 2000, 64
        noise = np.random.default_rng(5).standard_normal((steps, chains))
        x = np.empty((steps, chains))
        x[0] = noise[0]
        for t in range(1, steps):
            x[t] = phi * x[t - 1] + math.sqrt(1 - phi * phi) * noise[t]
        lags = np.arange(1, steps)
        var_chain_mean = (steps + 2 * np.sum((steps - lags) * phi ** lags)) / steps ** 2
        se_true = math.sqrt(var_chain_mean / chains)
        values = x.reshape(-1)
        chain_index = np.tile(np.arange(chains), steps)
        st = k_statistics(values, chain_index)
        assert st.se1 == pytest.approx(se_true, rel=0.25)
        assert st[:3] == k_statistics(values)[:3]
        # batches of a few steps across all chains see little of the drift
        assert k_statistics(values).se1 < 0.5 * se_true


class TestChainConfig:
    # (what to call, the exception it raises); the record is immutable
    INVALID = [
        (lambda: ChainConfig(samples=0), ValueError),
        (lambda: ChainConfig(samples=10, thinning=0), ValueError),
        (lambda: ChainConfig(samples=10, burn_in=-1), ValueError),
        (lambda: ChainConfig(samples=10, seed=-1), ValueError),
        (lambda: ChainConfig(samples=10, chain_count=0), ValueError),
        (lambda: ChainConfig(samples=10, seed=2 ** 64), ValueError),
        (lambda: setattr(ChainConfig(samples=10), "seed", 1), AttributeError),
        (lambda: ChainConfig(samples=10)._replace(seed=-1), ValueError),
    ]

    def test_validation(self):
        for build, error in self.INVALID:
            with pytest.raises(error):
                build()


class TestMcmc:
    def test_deterministic(self):
        cfg = ChainConfig(samples=1500, burn_in=300, thinning=3, chain_count=10, seed=5)
        dims = EnsembleDims(2, 3)
        a = mcmc_chain(dims, cfg)
        b = mcmc_chain(dims, cfg)
        assert np.array_equal(a.spectra, b.spectra)
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.entropies, b.entropies)

    def test_seed_changes_output(self):
        dims = EnsembleDims(2, 3)
        a = mcmc_chain(dims, ChainConfig(samples=500, burn_in=100, chain_count=4, seed=1))
        b = mcmc_chain(dims, ChainConfig(samples=500, burn_in=100, chain_count=4, seed=2))
        assert not np.array_equal(a.spectra, b.spectra)

    def test_batch_invariants(self):
        cfg = ChainConfig(samples=777, burn_in=200, thinning=2, chain_count=8, seed=3)
        batch = mcmc_chain(EnsembleDims(3, 4), cfg)
        assert len(batch) == 777
        assert batch.spectra.shape == (777, 3)
        np.testing.assert_allclose(batch.spectra.sum(axis=1), 1.0, atol=1e-12)
        recomputed = [-(row * np.log(row)).sum() for row in batch.spectra[:50]]
        np.testing.assert_allclose(batch.entropies[:50], recomputed, atol=1e-12)
        assert batch.provenance.backend == "mcmc"
        assert batch.provenance.dims == EnsembleDims(3, 4)

    def test_m1_marginal_is_gamma(self):
        cfg = ChainConfig(samples=40000, burn_in=1000, thinning=10, chain_count=50, seed=7)
        batch = mcmc_chain(EnsembleDims(1, 1), cfg)
        ks = stats.kstest(batch.thetas, "gamma", args=(0.5,))
        assert ks.pvalue > 0.01
        assert np.all(batch.entropies == 0.0)

    def test_mean_entropy_2_2(self):
        cfg = ChainConfig(samples=60000, burn_in=2000, thinning=10, chain_count=60, seed=11)
        batch = mcmc_chain(EnsembleDims(2, 2), cfg)
        st = k_statistics(batch.entropies, batch.chain_index)
        assert abs(st.k1 - K1_22) <= 4 * st.se1

    def test_entropies_T_identity(self):
        cfg = ChainConfig(samples=500, burn_in=200, thinning=2, chain_count=5, seed=13)
        batch = mcmc_chain(EnsembleDims(2, 2), cfg)
        x = batch.spectra * batch.thetas[:, None]
        direct = (x * np.log(x)).sum(axis=1)
        np.testing.assert_allclose(batch.entropies_T(), direct, rtol=1e-10)

    def test_statistical_match_4_6(self):
        from bureshall.cumulants import kappa2, kappa3

        dims = EnsembleDims(4, 6)
        cfg = ChainConfig(samples=200_000, burn_in=2000, thinning=10,
                          chain_count=100, seed=53)
        batch = mcmc_chain(dims, cfg)
        st = k_statistics(batch.entropies, batch.chain_index)
        for value, se, ref in (
            (st.k1, st.se1, float(kappa1(dims))),
            (st.k2, st.se2, float(kappa2(dims))),
            (st.k3, st.se3, float(kappa3(dims))),
        ):
            assert abs(value - ref) <= 4 * se


class TestMatrixModel:
    def test_single_draw(self):
        lam = sample_matrix_model_batch(3, 1, seed=21).spectra[0]
        assert lam.shape == (3,)
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(lam) <= 0)  # sorted descending

    @pytest.mark.parametrize("m,nsamp,seed_pair", [(2, 60000, (23, 29)), (3, 40000, (43, 47))])
    def test_batch_matches_mcmc_distribution(self, m, nsamp, seed_pair):
        mat = sample_matrix_model_batch(m, nsamp, seed=seed_pair[0])
        cfg = ChainConfig(samples=nsamp, burn_in=2000, thinning=30, chain_count=60,
                          seed=seed_pair[1])
        mc = mcmc_chain(EnsembleDims(m, m), cfg)
        ks = stats.ks_2samp(mat.entropies, mc.entropies)
        assert ks.pvalue > 0.01

    def test_batch_mean_matches_formula(self):
        batch = sample_matrix_model_batch(2, 60000, seed=31)
        st = k_statistics(batch.entropies)
        assert abs(st.k1 - K1_22) <= 4 * st.se1

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_matrix_model_batch(0, 5, seed=1)
        with pytest.raises(ValueError):
            sample_matrix_model_batch(2, 0, seed=1)


class TestTraceLawAndIndependence:
    def test_theta_gamma_and_uncorrelated(self):
        dims = EnsembleDims(2, 2)
        n = 30000
        cfg = ChainConfig(samples=n, burn_in=2000, thinning=20, chain_count=60, seed=37)
        batch = mcmc_chain(dims, cfg)
        ks = stats.kstest(batch.thetas, "gamma", args=(float(dims.d),))
        assert ks.pvalue > 0.01
        r = np.corrcoef(batch.thetas, batch.entropies)[0, 1]
        assert abs(r) < 4 / math.sqrt(n)


class TestCsv:
    def test_round_trip(self, tmp_path):
        cfg = ChainConfig(samples=200, burn_in=100, thinning=2, chain_count=4, seed=41)
        batch = mcmc_chain(EnsembleDims(2, 3), cfg)
        path = tmp_path / "samples.csv"
        write_sample_csv(batch, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "chain,step,theta,S,lambda_1,lambda_2"
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(data[:, 0], batch.chain_index)
        np.testing.assert_array_equal(data[:, 1], batch.step_index)
        np.testing.assert_array_equal(data[:, 2], batch.thetas)  # exact round-trip
        np.testing.assert_array_equal(data[:, 3], batch.entropies)
        np.testing.assert_array_equal(data[:, 4:], batch.spectra)

    def test_blocks_match_per_row_repr(self, tmp_path, monkeypatch):
        # rows are formatted a block at a time; with 64-row blocks the 200
        # rows span four blocks, the last one partial
        monkeypatch.setattr(fileio, "_CSV_BLOCK", 64)
        cfg = ChainConfig(samples=200, burn_in=100, thinning=2, chain_count=4, seed=41)
        batch = mcmc_chain(EnsembleDims(3, 4), cfg)
        path = tmp_path / "samples.csv"
        write_sample_csv(batch, str(path))
        rows = ["chain,step,theta,S,lambda_1,lambda_2,lambda_3"]
        for i in range(len(batch)):
            values = [batch.thetas[i], batch.entropies[i], *batch.spectra[i]]
            cells = [int(batch.chain_index[i]), int(batch.step_index[i])]
            rows.append(",".join(map(str, cells)) + "," + ",".join(repr(float(v)) for v in values))
        assert path.read_text() == "\n".join(rows) + "\n"

        # m = 1: every spectrum is (1.0,), so S is 0.0 in every row
        batch = mcmc_chain(EnsembleDims(1, 2), cfg)
        write_sample_csv(batch, str(path))
        rows = ["chain,step,theta,S,lambda_1"]
        for i in range(len(batch)):
            rows.append(f"{batch.chain_index[i]},{batch.step_index[i]},"
                        f"{float(batch.thetas[i])!r},0.0,1.0")
        assert path.read_text() == "\n".join(rows) + "\n"

    # SHA-256 of each seeded CSV: a change to the kernel, its draw order or
    # its arithmetic that moves one output value by one ulp changes these
    SEEDED_DIGESTS = {
        "mcmc_1_3": ("b194e25601542b35336797a97daeb2d4"
                     "225beecc11d4041cc6add96d13415e0b"),
        "mcmc_2_3": ("29143f94ba2c6066ffa1b1ef4f057ed3"
                     "1e60e5b453231162190cef24600861a3"),
        "mcmc_4_6": ("0f6d4ad8e89316587fbe3a681a8aa632"
                     "59ef6c3adffbe1e74cb97b1ea6351b55"),
        "mcmc_12_24": ("3fc75145ef94ba6bc92f387d824a57dc"
                       "f9d9c0954d1769782cf947cc0651d628"),
        "matrix_3_3": ("4ea180629abf8c90fb33de1fc245d42f"
                       "1a55575b4fe3d622100523fb2a3a50ab"),
    }

    @pytest.fixture(scope="class")
    def seeded_batches(self):
        return {
            "mcmc_1_3": mcmc_chain(EnsembleDims(1, 3), ChainConfig(samples=1000, burn_in=300,
                                                                   seed=3)),
            "mcmc_2_3": mcmc_chain(EnsembleDims(2, 3), ChainConfig(
                samples=1000, burn_in=700, thinning=3, chain_count=8, seed=5)),
            "mcmc_4_6": mcmc_chain(EnsembleDims(4, 6), ChainConfig(samples=3000, seed=1)),
            "mcmc_12_24": mcmc_chain(EnsembleDims(12, 24), ChainConfig(samples=2000, seed=2)),
            "matrix_3_3": sample_matrix_model_batch(3, 3000, seed=7),
        }

    @staticmethod
    def csv_digests(batches, tmp_path):
        digests = {}
        for name, batch in batches.items():
            path = tmp_path / f"{name}.csv"
            write_sample_csv(batch, str(path))
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    def test_seeded_output_bytes(self, tmp_path, seeded_batches):
        """Seeded CSVs are byte-identical to the recorded digests.

        The digests come from numpy 2.4.6 on x86-64; another numpy or CPU may
        round exp, log or the row sums differently.  (2,3) runs 8 chains with
        700 burn-in steps, so burn-in crosses a 512-step draw block and is
        retuned seven times; the other MCMC sample counts leave a partial last
        row of chains.
        """
        assert self.csv_digests(seeded_batches, tmp_path) == self.SEEDED_DIGESTS

    def test_seeded_output_bytes_from_worker_pool(self, tmp_path, monkeypatch, seeded_batches):
        # with 500-row blocks each seeded CSV spans two to six blocks, and with
        # two usable CPUs forked workers format them
        monkeypatch.setattr(fileio, "_CSV_BLOCK", 500)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert self.csv_digests(seeded_batches, tmp_path) == self.SEEDED_DIGESTS

    def test_creates_missing_directory(self, tmp_path):
        cfg = ChainConfig(samples=20, burn_in=10, thinning=1, chain_count=2, seed=3)
        path = tmp_path / "new" / "samples.csv"
        write_sample_csv(mcmc_chain(EnsembleDims(2, 2), cfg), str(path))
        assert len(path.read_text().splitlines()) == 21
        assert [p.name for p in path.parent.iterdir()] == ["samples.csv"]

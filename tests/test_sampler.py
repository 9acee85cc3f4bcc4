"""Sampler tests: density evaluation, chain determinism, distributional
agreement with the closed forms, matrix-model backend, k-statistics, CSV."""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from sample_helpers import collect, entropies_T
from scipy import stats

import bureshall
from bureshall import sampler
from bureshall.cumulants import EnsembleDims, cumulant_set, kappa1
from bureshall.sampler import (
    ChainConfig,
    _entropies,
    _pair_term,
    k_statistics,
    mcmc_chain,
    sample_matrix_model_batch,
    write_sample_csv,
)

K1_22 = 0.2196276944532239  # 2 ln 2 - 7/6


def log_density(x, dims: EnsembleDims) -> float:
    """The unconstrained log-density at one point x, from the kernel's pair
    term: pair + alpha * sum(ln x) - sum(x)."""
    x = np.array([x], dtype=float)
    pairs = np.concatenate(np.triu_indices(dims.m, 1))
    pair = _pair_term(x, pairs)
    return float(pair[0] + float(dims.alpha) * np.log(x).sum() - x.sum())


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

    def test_pair_term_is_homogeneous(self):
        # the kernel compares pair terms at points of each spectrum's ray, not
        # at x itself: scaling a row by c adds m(m - 1)/2 * ln c, and
        # coinciding x_i give -inf
        x = np.array([[0.3, 1.7, 2.2, 5.0], [1.0, 1.0, 2.0, 3.0]])
        pairs = np.concatenate(np.triu_indices(4, 1))
        with np.errstate(divide="ignore"):
            pair = _pair_term(x, pairs)
            scaled = _pair_term(2.5 * x, pairs)
        assert pair[0] + 6 * math.log(2.5) == pytest.approx(scaled[0], abs=1e-13)
        assert pair[1] == scaled[1] == -math.inf


class TestProjectionAndEntropy:
    def test_entropy_endpoints(self):
        assert _entropies(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0
        m = 4
        assert _entropies(np.full((1, m), 1.0 / m))[0] == pytest.approx(math.log(m))
        assert _entropies(np.array([[0.5, 0.5]]))[0] == pytest.approx(math.log(2))

    def test_entropy_bounds_on_random_projections(self):
        # rows 3, 17 and 49 are pure spectra, whose -0.0 turns into 0.0
        rng = np.random.default_rng(0)
        x = rng.gamma(0.7, size=(50, 3))
        x[[3, 17, 49], 1:] = 0.0
        s = _entropies(x / x.sum(axis=1, keepdims=True))
        assert np.all((0.0 <= s) & (s <= math.log(3) + 1e-12))
        assert list(s[[3, 17, 49]]) == [0.0] * 3
        assert not np.signbit(s).any()

    def test_entropy_T_examples(self):
        # T = sum x ln x at x = (1), (e) and (2, 2), from theta = sum x and the
        # entropy S of x / theta; entropies_T reads nothing else
        t = entropies_T(np.array([1.0, math.e, 4.0]), np.array([0.0, 0.0, math.log(2)]))
        assert t[0] == 0.0
        assert t[1] == pytest.approx(math.e)
        assert t[2] == pytest.approx(4 * math.log(2))


def _argsort_kstats(values: np.ndarray, chains: int) -> list:
    """k_statistics as once computed: powers by ** and chain-major batches
    from a stable argsort of each value's chain index."""
    def k123(x):
        n = len(x)
        mean = x.mean()
        centered = x - mean
        m2 = float((centered ** 2).sum())
        m3 = float((centered ** 3).mean())
        return float(mean), m2 / (n - 1), n * n / ((n - 1) * (n - 2)) * m3

    n = len(values)
    n_batches = min(sampler._MAX_BATCHES, n // 3)
    if n_batches < sampler._MIN_BATCHES:
        return [*k123(values), math.nan, math.nan, math.nan]
    ordered = values[np.argsort(np.arange(n) % chains, kind="stable")]
    batch_len = n // n_batches
    stats = np.array([k123(row) for row in
                      ordered[: n_batches * batch_len].reshape(n_batches, batch_len)])
    return [*k123(values), *(stats.std(axis=0, ddof=1) / math.sqrt(n_batches))]


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
        st = k_statistics(values, chains)
        assert st.se1 == pytest.approx(se_true, rel=0.25)
        assert st[:3] == k_statistics(values)[:3]
        # batches of a few steps across all chains see little of the drift
        assert k_statistics(values).se1 < 0.5 * se_true

    @pytest.mark.parametrize("n, chains", [(3001, 7), (5000, 1), (10_000, 64), (89, 4)],
                             ids=["7-chains", "1-chain", "ragged", "no-ses"])
    def test_match_argsort_batches(self, n, chains):
        # chain-major batches by strided slices, and the powers into one buffer,
        # give the KStats of a stable argsort and ** to the bit, also when the
        # chain count does not divide N, and below 90 values, where the SEs are NaN
        values = np.random.default_rng(n).gamma(2.0, size=n) ** 3
        np.testing.assert_array_equal(k_statistics(values, chains), _argsort_kstats(values, chains))


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
        a = collect(mcmc_chain(dims, cfg))
        b = collect(mcmc_chain(dims, cfg))
        assert np.array_equal(a.spectra, b.spectra)
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.entropies, b.entropies)

    def test_seed_changes_output(self):
        dims = EnsembleDims(2, 3)
        a = collect(mcmc_chain(dims, ChainConfig(samples=500, burn_in=100, chain_count=4, seed=1)))
        b = collect(mcmc_chain(dims, ChainConfig(samples=500, burn_in=100, chain_count=4, seed=2)))
        assert not np.array_equal(a.spectra, b.spectra)

    def test_batch_invariants(self):
        cfg = ChainConfig(samples=777, burn_in=200, thinning=2, chain_count=8, seed=3)
        batch = mcmc_chain(EnsembleDims(3, 4), cfg)
        assert len(batch) == 777
        batch = collect(batch)
        assert batch.spectra.shape == (777, 3)
        np.testing.assert_allclose(batch.spectra.sum(axis=1), 1.0, atol=1e-12)
        recomputed = [-(row * np.log(row)).sum() for row in batch.spectra[:50]]
        np.testing.assert_allclose(batch.entropies[:50], recomputed, atol=1e-12)
        assert batch.provenance.dims == EnsembleDims(3, 4)

    def test_m1_marginal_is_gamma(self):
        cfg = ChainConfig(samples=40000, burn_in=1000, thinning=10, chain_count=50, seed=7)
        batch = collect(mcmc_chain(EnsembleDims(1, 1), cfg))
        ks = stats.kstest(batch.thetas, "gamma", args=(0.5,))
        assert ks.pvalue > 0.01
        assert np.all(batch.entropies == 0.0)

    def test_mean_entropy_2_2(self):
        cfg = ChainConfig(samples=60000, burn_in=2000, thinning=10, chain_count=60, seed=11)
        batch = mcmc_chain(EnsembleDims(2, 2), cfg)
        st = k_statistics(batch.entropies, batch.chains)
        assert abs(st.k1 - K1_22) <= 4 * st.se1

    def test_entropies_T_identity(self):
        cfg = ChainConfig(samples=500, burn_in=200, thinning=2, chain_count=5, seed=13)
        batch = collect(mcmc_chain(EnsembleDims(2, 2), cfg))
        x = batch.spectra * batch.thetas[:, None]
        direct = (x * np.log(x)).sum(axis=1)
        np.testing.assert_allclose(entropies_T(batch.thetas, batch.entropies), direct,
                                   rtol=1e-10)

    @pytest.mark.parametrize("m", [1, 4, 12])
    def test_chains_are_independent(self, m):
        # with no burn-in there is no shared tuning, so a chain's rows are the
        # same whether it runs alone or beside 6 or 63 others; 300 kept steps
        # at thinning 2 cross a 512-step draw block
        dims = EnsembleDims(m, 2 * m)
        runs = {}
        for chains in (64, 7, 1):
            cfg = ChainConfig(samples=300 * chains, burn_in=0, thinning=2, chain_count=chains,
                              seed=23)
            batch = collect(mcmc_chain(dims, cfg))
            runs[chains] = batch.spectra.reshape(300, chains, m), batch.thetas.reshape(300, chains)
        for chains in (7, 1):
            for wide, narrow in zip(runs[64], runs[chains]):
                assert np.array_equal(wide[:, :chains], narrow)

    def test_reader_keeps_numpy_error_state(self, monkeypatch):
        # the kernel ignores log 0 inside its step loop; a reader that takes
        # the 300 rows in five 64-row blocks sees its own error state
        monkeypatch.setattr(sampler, "_ROWS", 64)
        before = np.geterr()
        cfg = ChainConfig(samples=300, burn_in=150, thinning=2, chain_count=8, seed=3)
        seen = [np.geterr() for _ in mcmc_chain(EnsembleDims(3, 4), cfg)]
        assert seen == [before] * 5
        assert np.geterr() == before

    def test_statistical_match_4_6(self):
        from bureshall.cumulants import kappa2, kappa3

        dims = EnsembleDims(4, 6)
        cfg = ChainConfig(samples=200_000, burn_in=2000, thinning=10,
                          chain_count=100, seed=53)
        batch = mcmc_chain(dims, cfg)
        st = k_statistics(batch.entropies, batch.chains)
        for value, se, ref in (
            (st.k1, st.se1, float(kappa1(dims))),
            (st.k2, st.se2, float(kappa2(dims))),
            (st.k3, st.se3, float(kappa3(dims))),
        ):
            assert abs(value - ref) <= 4 * se

    @pytest.mark.parametrize("m, n", [(3, 10 ** 10), (8, 10 ** 8)])
    def test_step_fits_a_narrow_target(self, m, n):
        # the target narrows like 1/sqrt(n), and the tuned step must follow
        # it: a step held at 1e-3 accepted 0.0005 and 0.0007 here, and the
        # chains barely moved, so the batch-means SEs understated the error
        dims = EnsembleDims(m, n)
        batch = mcmc_chain(dims, ChainConfig(samples=20_000, seed=5))
        st = k_statistics(batch.entropies, batch.chains)
        assert 0.2 <= batch.kernel["acceptance"] <= 0.5
        ref = cumulant_set(dims)
        for value, se, kappa in ((st.k1, st.se1, ref.kappa1_f), (st.k2, st.se2, ref.kappa2_f),
                                 (st.k3, st.se3, ref.kappa3_f)):
            assert abs(value - kappa) <= 4 * se

    def test_k2_past_the_trace_wall(self):
        # a test on the trace theta ~ m n = 3e14 rounds by about 0.03, which
        # biased k2 here to 6.17 SEs above kappa2; the collapsed test has no
        # term of that size.  S itself is quantized from n ~ 10^15 on
        dims = EnsembleDims(3, 10 ** 14)
        batch = mcmc_chain(dims, ChainConfig(samples=80_000, burn_in=4000, seed=5))
        st = k_statistics(batch.entropies, batch.chains)
        assert abs(st.k2 - cumulant_set(dims).kappa2_f) <= 4 * st.se2

    def test_start_with_equal_coordinates(self, tmp_path):
        # at n = 10^35 a chain's Gamma(alpha + 1) start draws round to equal
        # floats; such a start has log-density -inf, and the first proposal
        # with distinct coordinates is accepted
        src = os.path.dirname(os.path.dirname(bureshall.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-m", "bureshall.cli", "simulate", "--m", "3", "--n", str(10 ** 35),
             "--samples", "3", "--seed", "1"],
            env=dict(os.environ, PYTHONPATH=path, BURESHALL_OUT_DIR=str(tmp_path)),
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr


class TestMatrixModel:
    def test_single_draw(self):
        lam = collect(sample_matrix_model_batch(3, 1, seed=21)).spectra[0]
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
        batch = collect(mcmc_chain(dims, cfg))
        ks = stats.kstest(batch.thetas, "gamma", args=(float(dims.d),))
        assert ks.pvalue > 0.01
        r = np.corrcoef(batch.thetas, batch.entropies)[0, 1]
        assert abs(r) < 4 / math.sqrt(n)


class TestCsv:
    def test_round_trip(self, tmp_path):
        cfg = ChainConfig(samples=200, burn_in=100, thinning=2, chain_count=4, seed=41)
        batch = collect(mcmc_chain(EnsembleDims(2, 3), cfg))
        path = tmp_path / "samples.csv"
        write_sample_csv(mcmc_chain(EnsembleDims(2, 3), cfg), str(path))
        header = path.read_text().splitlines()[0]
        assert header == "chain,step,theta,S,lambda_1,lambda_2"
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(data[:, 0], batch.chain_index)
        np.testing.assert_array_equal(data[:, 1], batch.step_index)
        np.testing.assert_array_equal(data[:, 2], batch.thetas)  # exact round-trip
        np.testing.assert_array_equal(data[:, 3], batch.entropies)
        np.testing.assert_array_equal(data[:, 4:], batch.spectra)

    def test_blocks_match_per_row_repr(self, tmp_path, monkeypatch):
        # rows are drawn and formatted a block at a time; with 64-row blocks
        # the 200 rows span four blocks, the last one partial
        monkeypatch.setattr(sampler, "_ROWS", 64)
        cfg = ChainConfig(samples=200, burn_in=100, thinning=2, chain_count=4, seed=41)
        batch = collect(mcmc_chain(EnsembleDims(3, 4), cfg))
        path = tmp_path / "samples.csv"
        write_sample_csv(mcmc_chain(EnsembleDims(3, 4), cfg), str(path))
        rows = ["chain,step,theta,S,lambda_1,lambda_2,lambda_3"]
        for i in range(len(batch.thetas)):
            values = [batch.thetas[i], batch.entropies[i], *batch.spectra[i]]
            cells = [int(batch.chain_index[i]), int(batch.step_index[i])]
            rows.append(",".join(map(str, cells)) + "," + ",".join(repr(float(v)) for v in values))
        assert path.read_text() == "\n".join(rows) + "\n"

        # m = 1: every spectrum is (1.0,), so S is 0.0 in every row
        batch = collect(mcmc_chain(EnsembleDims(1, 2), cfg))
        write_sample_csv(mcmc_chain(EnsembleDims(1, 2), cfg), str(path))
        rows = ["chain,step,theta,S,lambda_1"]
        for i in range(len(batch.thetas)):
            rows.append(f"{batch.chain_index[i]},{batch.step_index[i]},"
                        f"{float(batch.thetas[i])!r},0.0,1.0")
        assert path.read_text() == "\n".join(rows) + "\n"

    # SHA-256 of each seeded CSV: a change to the kernel, its draw order or
    # its arithmetic that moves one output value by one ulp changes these
    SEEDED_DIGESTS = {
        "mcmc_1_3": ("0bee6d5f93539e4f35fe3b7686774cf5"
                     "c9276f4fdf3e519a16761bbf60cc2603"),
        "mcmc_2_3": ("75ee9db8f17fa9846b5f15b694aad5e8"
                     "096afdcf6a5bfb6be7754e4c146fd20c"),
        "mcmc_4_6": ("2b1ac78c80af771011eab96e549ab667"
                     "f192f87a529e02bcabcc2b9c2d61076c"),
        "mcmc_12_24": ("746b8b0cb26bc28af854f1ba9ab723ad"
                       "0c96951804cb5e0392927003eb5b2177"),
        "matrix_3_3": ("3c165da748e0b0eb98c6760dd2599901"
                       "be7a502b6d54c70d06fe0ab1372dc007"),
        "mcmc_3_5_cold": ("3265f15db3678762fc60d18fce4fb64d"
                          "f79b4c96eae55e405909a59b6d18a3f7"),
        "mcmc_2_4_250": ("2d59f2bf2b15bdad88b4a5df19c11168"
                         "c4a1d65bb754cdd850dac2a65fd600b3"),
        "mcmc_2_2_wide": ("59030ad8a290f3c8d19ff63553eb7a4e"
                          "aec26fb0598eecbc2bb9f627171e2fff"),
    }

    # each batch is read once, so each test draws its own
    SEEDED_BATCHES = {
        "mcmc_1_3": lambda: mcmc_chain(EnsembleDims(1, 3), ChainConfig(samples=1000, burn_in=300,
                                                                       seed=3)),
        "mcmc_2_3": lambda: mcmc_chain(EnsembleDims(2, 3), ChainConfig(
            samples=1000, burn_in=700, thinning=3, chain_count=8, seed=5)),
        "mcmc_4_6": lambda: mcmc_chain(EnsembleDims(4, 6), ChainConfig(samples=3000, seed=1)),
        "mcmc_12_24": lambda: mcmc_chain(EnsembleDims(12, 24), ChainConfig(samples=2000, seed=2)),
        "matrix_3_3": lambda: sample_matrix_model_batch(3, 3000, seed=7),
        "mcmc_3_5_cold": lambda: mcmc_chain(EnsembleDims(3, 5), ChainConfig(
            samples=700, burn_in=0, thinning=1, chain_count=6, seed=9)),
        "mcmc_2_4_250": lambda: mcmc_chain(EnsembleDims(2, 4), ChainConfig(
            samples=900, burn_in=250, thinning=2, chain_count=7, seed=4)),
        "mcmc_2_2_wide": lambda: mcmc_chain(EnsembleDims(2, 2), ChainConfig(
            samples=4250, burn_in=130, thinning=2, chain_count=2100, seed=6)),
    }

    def csv_digests(self, tmp_path):
        digests = {}
        for name, draw in self.SEEDED_BATCHES.items():
            path = tmp_path / f"{name}.csv"
            write_sample_csv(draw(), str(path))
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    def test_seeded_output_bytes(self, tmp_path):
        """Seeded CSVs are byte-identical to the recorded digests.

        The digests come from numpy 2.4.6 on x86-64; another numpy or CPU may
        round exp, log or the row sums differently.  (2,3) runs 8 chains with
        700 burn-in steps, so burn-in crosses a 512-step draw block and is
        retuned seven times; the other MCMC sample counts leave a partial last
        row of chains.  The last three cover the schedule's edges: no burn-in
        at thinning 1, a burn-in that ends in a partial tuning window, and
        more chains than a block has rows, so that a block is one step.
        """
        assert self.csv_digests(tmp_path) == self.SEEDED_DIGESTS

    def test_seeded_output_bytes_from_worker_pool(self, tmp_path, monkeypatch, cpus):
        # with MCMC blocks of about 500 rows each seeded CSV spans two to
        # seven blocks, and even on one usable CPU a forked writer formats
        # them while this process draws the next ones
        monkeypatch.setattr(sampler, "_ROWS", 500)
        forks = cpus(1)
        assert self.csv_digests(tmp_path) == self.SEEDED_DIGESTS
        assert len(forks) == len(self.SEEDED_DIGESTS)

    def test_seeded_output_bytes_through_a_default_pipe(self, tmp_path, monkeypatch, cpus):
        # where the writer's data pipe cannot be deepened, it keeps the
        # default size and the same bytes reach the CSV
        import fcntl

        def refused(fd, cmd, arg=0):
            raise PermissionError("pipe size refused")

        monkeypatch.setattr(fcntl, "fcntl", refused)
        monkeypatch.setattr(sampler, "_ROWS", 500)
        forks = cpus(1)
        assert self.csv_digests(tmp_path) == self.SEEDED_DIGESTS
        assert len(forks) == len(self.SEEDED_DIGESTS)

    @pytest.mark.parametrize("count", [1, 2])
    def test_sampler_error_mid_stream(self, tmp_path, monkeypatch, cpus, count):
        # the matrix backend's round-off check fails in its second block of
        # six, after the first was sent to the writer: the error is raised
        # here, the target keeps its content, no temporary file is left and
        # the writer is reaped
        forks = cpus(count)
        monkeypatch.setattr(sampler, "_MATRIX_BLOCK", 500)
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def shifted_after_first_call(mat):
            calls.append(len(mat))
            return eigvalsh(mat) - (len(calls) > 1)

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted_after_first_call)
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(ValueError, match="eigenvalue below round-off tolerance"):
            write_sample_csv(sample_matrix_model_batch(3, 3000, seed=7), str(target))
        assert calls == [500, 500]
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text() == "old\n"

    def test_batch_is_read_once(self):
        batch = sample_matrix_model_batch(2, 10, seed=1)
        assert len(list(batch)) == 1
        with pytest.raises(RuntimeError, match="read once"):
            iter(batch)

    def test_creates_missing_directory(self, tmp_path):
        cfg = ChainConfig(samples=20, burn_in=10, thinning=1, chain_count=2, seed=3)
        path = tmp_path / "new" / "samples.csv"
        write_sample_csv(mcmc_chain(EnsembleDims(2, 2), cfg), str(path))
        assert len(path.read_text().splitlines()) == 21
        assert [p.name for p in path.parent.iterdir()] == ["samples.csv"]

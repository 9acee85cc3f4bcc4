"""Random spectra from the Bures-Hall ensemble.

Two backends:

* ``mcmc_chain`` targets the unconstrained eigenvalue density

      h(x) ~ prod_{i<j} (x_i - x_j)^2 / (x_i + x_j) * prod_i x_i^alpha e^{-x_i}

  with a random-walk Metropolis kernel in log coordinates and projects
  x -> lambda = x / theta.  The factorization h(x) dx = f(lambda) g(theta)
  dtheta dlambda (theta ~ Gamma(d)) makes the projected spectra exactly
  Bures-Hall distributed and independent of theta.  Each Metropolis sweep is
  a component update (independent Gaussian increments on ln x_i) followed by
  a collective scale update (a common increment on all ln x_i); the scale
  move sees only the Gamma(d) factor of the density and decorrelates theta
  quickly.  Chains run vectorized; every chain owns an RNG stream spawned
  from (seed, chain index), so batches are bit-reproducible and merging is
  deterministic by chain index.  The step loop is bound by per-call numpy
  overhead on small arrays, so a step does little: its draws come from
  step-major blocks whose uniforms are already logged, it evaluates the
  log-density once (whose row sums become the accepted traces), and its
  scale move is branch-free.

* ``sample_matrix_model_batch`` draws the reduced density matrix directly for
  n = m, where the unitary weight is flat: M = (I+U) Z Z* (I+U)* with Z
  complex Ginibre and U Haar unitary, spectrum = eig(M) / tr(M).

Also here: the unbiased k-statistics with batch-means standard errors used
by every Monte Carlo acceptance check, whose batches follow each chain when
the chain index is given, and the sample CSV writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cumulants import EnsembleDims
from .fileio import _write_csv


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis chain settings.  The component step starts at 0.25/sqrt(m)
    and the scale step at 2.4/sqrt(max(d, 1)); burn-in tunes both to
    acceptance in [0.2, 0.5], and they stay frozen after it."""

    samples: int
    burn_in: int = 2000
    thinning: int = 10
    chain_count: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.chain_count < 1:
            raise ValueError("chain_count must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class Provenance:
    dims: EnsembleDims
    config: Optional[ChainConfig]
    backend: str


@dataclass(frozen=True)
class SampleBatch:
    """Parallel arrays of spectra, traces and entropies plus provenance."""

    spectra: np.ndarray  # (N, m)
    thetas: np.ndarray  # (N,)
    entropies: np.ndarray  # (N,)
    chain_index: np.ndarray  # (N,)
    step_index: np.ndarray  # (N,)
    provenance: Provenance

    def __len__(self):
        return len(self.thetas)

    def entropies_T(self) -> np.ndarray:
        """Unconstrained entropies T = sum x ln x = theta ln theta - theta S."""
        return self.thetas * np.log(self.thetas) - self.thetas * self.entropies


# ---------------------------------------------------------------------------
# Metropolis backend
# ---------------------------------------------------------------------------

_BLOCK = 512
_TUNE_WINDOW = 100
_SCALE_BOUNDS = (1e-3, 5.0)


def _retune(sigma: float, rate: float) -> float:
    """Shrink a step whose acceptance rate fell below 0.2, widen one above 0.5."""
    if rate < 0.2:
        return max(sigma * 0.6, _SCALE_BOUNDS[0])
    if rate > 0.5:
        return min(sigma * 1.5, _SCALE_BOUNDS[1])
    return sigma


def _log_density(x: np.ndarray, y: np.ndarray, w: float, pairs: np.ndarray):
    """Row-wise pair term + w * sum(y) - sum(x): the unconstrained log-density
    at x with y = ln x and w = alpha, or, with w = alpha + 1, the log-density
    of y = ln x (the Jacobian adds sum(y)).  Returns it together with the row
    sums of x, the traces.

    pairs is concat(i, j) over the index pairs i < j.  Coinciding x_i give
    log 0 = -inf, so call inside np.errstate(divide="ignore").
    """
    ends = x[:, pairs]
    half = len(pairs) // 2
    a, b = ends[:, :half], ends[:, half:]
    d = np.abs(a - b)
    np.log(d, out=d)
    d *= 2.0
    d -= np.log(a + b)
    trace = x.sum(axis=1)
    return d.sum(axis=1) + w * y.sum(axis=1) - trace, trace


_ENTROPY_BLOCK = 8192


def _entropies(lam: np.ndarray) -> np.ndarray:
    """Row-wise von Neumann entropies with 0 ln 0 = 0, a block of rows at a
    time so that the temporaries stay small."""
    out = np.empty(len(lam))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(lam), _ENTROPY_BLOCK):
            block = lam[start:start + _ENTROPY_BLOCK]
            # + 0.0 turns the -0.0 of a pure spectrum into 0.0
            out[start:start + _ENTROPY_BLOCK] = (
                -np.where(block > 0, block * np.log(block), 0.0).sum(axis=1) + 0.0)
    return out


def mcmc_chain(dims: EnsembleDims, config: ChainConfig) -> SampleBatch:
    """Sample the unconstrained ensemble and project to the simplex.

    Returns config.samples spectra merged from chain_count chains in
    step-major, chain-minor order.  Bit-identical for identical arguments.

    Draws come a block of _BLOCK steps at a time, laid out step-major so that
    one step's draws for all chains are contiguous; each chain fills its
    slice in a fixed order (component normals, component uniforms, scale
    normals, scale uniforms), and the uniforms' logs are taken once per
    block.  A step evaluates the log-density once, at the component
    proposal, whose row sums become the traces of the chains that accept it.
    The scale move is branch-free: a rejecting chain is multiplied by 1.0
    and shifted by 0.0, which leaves its finite state unchanged.
    """
    m = dims.m
    alpha = float(dims.alpha)
    d_shape = float(dims.d)
    n_chains = config.chain_count
    kept_per_chain = -(-config.samples // n_chains)
    total_steps = config.burn_in + config.thinning * kept_per_chain

    children = np.random.SeedSequence(config.seed).spawn(n_chains)
    gens = [np.random.Generator(np.random.PCG64(s)) for s in children]

    # the pairs i < j as concat(i, j); empty at m = 1, where the pair term is 0
    pairs = np.concatenate(np.triu_indices(m, 1))
    x = np.empty((n_chains, m))
    for c, g in enumerate(gens):
        x[c] = g.gamma(alpha + 1.0, 1.0, size=m)
        while np.unique(x[c]).size < m:  # measure-zero, but be safe
            x[c] = g.gamma(alpha + 1.0, 1.0, size=m)
    y = np.log(x)

    sigma_comp = 0.25 / math.sqrt(m)
    sigma_scale = 2.4 / math.sqrt(max(d_shape, 1.0))

    lam_out = np.empty((kept_per_chain, n_chains, m))
    theta_out = np.empty((kept_per_chain, n_chains))

    step = 0
    kept = 0
    acc_comp = trials = acc_scale = 0
    with np.errstate(divide="ignore"):
        logp, theta = _log_density(x, y, alpha + 1.0, pairs)
        while step < total_steps:
            nblock = min(_BLOCK, total_steps - step)
            comp_steps = np.empty((nblock, n_chains, m))
            comp_logu = np.empty((nblock, n_chains))
            scale_steps = np.empty((nblock, n_chains))
            scale_logu = np.empty((nblock, n_chains))
            for c, g in enumerate(gens):
                comp_steps[:, c] = g.standard_normal((nblock, m))
                comp_logu[:, c] = g.random(nblock)
                scale_steps[:, c] = g.standard_normal(nblock)
                scale_logu[:, c] = g.random(nblock)
            np.log(comp_logu, out=comp_logu)
            np.log(scale_logu, out=scale_logu)

            for t in range(nblock):
                # component move
                y_prop = y + sigma_comp * comp_steps[t]
                x_prop = np.exp(y_prop)
                logp_prop, theta_prop = _log_density(x_prop, y_prop, alpha + 1.0, pairs)
                accept = comp_logu[t] < logp_prop - logp
                np.copyto(y, y_prop, where=accept[:, None])
                np.copyto(x, x_prop, where=accept[:, None])
                np.copyto(logp, logp_prop, where=accept)
                np.copyto(theta, theta_prop, where=accept)

                # collective scale move; only the Gamma(d) trace factor changes
                s = sigma_scale * scale_steps[t]
                delta = d_shape * s - theta * np.expm1(s)
                accept_s = scale_logu[t] < delta
                factor = np.where(accept_s, np.exp(s), 1.0)
                x *= factor[:, None]
                theta *= factor
                y += np.where(accept_s, s, 0.0)[:, None]
                logp += np.where(accept_s, delta, 0.0)

                if step < config.burn_in:
                    acc_comp += np.count_nonzero(accept)
                    acc_scale += np.count_nonzero(accept_s)
                    trials += n_chains
                    if trials >= _TUNE_WINDOW * n_chains:
                        sigma_comp = _retune(sigma_comp, acc_comp / trials)
                        sigma_scale = _retune(sigma_scale, acc_scale / trials)
                        acc_comp = acc_scale = trials = 0
                elif (step - config.burn_in) % config.thinning == config.thinning - 1:
                    np.divide(x, theta[:, None], out=lam_out[kept])
                    theta_out[kept] = theta
                    kept += 1
                step += 1
    del comp_steps, comp_logu, scale_steps, scale_logu  # before the entropies' temporaries

    lam_flat = lam_out.reshape(-1, m)[: config.samples]
    theta_flat = theta_out.reshape(-1)[: config.samples]
    chain_idx = np.tile(np.arange(n_chains), kept_per_chain)[: config.samples]
    step_idx = np.repeat(
        config.burn_in + config.thinning * (np.arange(kept_per_chain) + 1) - 1, n_chains
    )[: config.samples]
    return SampleBatch(
        spectra=lam_flat,
        thetas=theta_flat,
        entropies=_entropies(lam_flat),
        chain_index=chain_idx,
        step_index=step_idx,
        provenance=Provenance(dims, config, "mcmc"),
    )


# ---------------------------------------------------------------------------
# matrix-model backend (n = m only)
# ---------------------------------------------------------------------------

def _haar_unitary(gen: np.random.Generator, count: int, m: int) -> np.ndarray:
    z = (gen.standard_normal((count, m, m)) + 1j * gen.standard_normal((count, m, m)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    q *= (diag / np.abs(diag))[:, None, :]
    return q


def sample_matrix_model_batch(m: int, count: int, seed: int) -> SampleBatch:
    """count spectra from the n = m matrix model M = (I+U) Z Z* (I+U)*."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dims = EnsembleDims(m, m)
    lam_all = np.empty((count, m))
    theta_all = np.empty(count)
    block = 20000
    done = 0
    while done < count:
        nb = min(block, count - done)
        u = _haar_unitary(gen, nb, m)
        z = (gen.standard_normal((nb, m, m)) + 1j * gen.standard_normal((nb, m, m)))
        z /= math.sqrt(2.0)
        # each complex (nb, m, m) temporary is dropped as soon as it is used
        w = (np.eye(m) + u) @ z
        del u, z
        mat = w @ w.conj().transpose(0, 2, 1)
        del w
        lam = np.linalg.eigvalsh(mat)  # ascending, real
        del mat
        trace = lam.sum(axis=1)
        lam = lam / trace[:, None]
        if lam.min() < -1e-12:
            raise ValueError(f"eigenvalue below round-off tolerance: {lam.min()}")
        lam = np.clip(lam, 0.0, None)
        sums = lam.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("spectrum normalization drifted beyond 1e-12")
        lam /= sums[:, None]
        lam_all[done : done + nb] = lam[:, ::-1]  # descending
        theta_all[done : done + nb] = trace
        done += nb
    return SampleBatch(
        spectra=lam_all,
        thetas=theta_all,
        entropies=_entropies(lam_all),
        chain_index=np.zeros(count, dtype=int),
        step_index=np.arange(count),
        provenance=Provenance(dims, None, "matrix"),
    )


# ---------------------------------------------------------------------------
# k-statistics
# ---------------------------------------------------------------------------

class KStats(NamedTuple):
    k1: float
    k2: float
    k3: float
    se1: float
    se2: float
    se3: float


def _k123(values: np.ndarray) -> tuple[float, float, float]:
    n = len(values)
    mean = values.mean()
    centered = values - mean
    m2 = float((centered ** 2).sum())
    m3 = float((centered ** 3).mean())
    k2 = m2 / (n - 1)
    k3 = n * n / ((n - 1) * (n - 2)) * m3
    return float(mean), k2, k3


_MIN_BATCHES = 30
_MAX_BATCHES = 50


def k_statistics(values, chain_index=None) -> KStats:
    """Unbiased cumulant estimators k1, k2, k3 with batch-means standard errors.

    k1 is the sample mean, k2 the unbiased variance and
    k3 = N^2/((N-1)(N-2)) times the mean cubed deviation.  Standard errors
    come from the dispersion of per-batch estimates over non-overlapping
    batches: up to _MAX_BATCHES batches of length >= 3 (n // 3 caps their
    number), and NaN when fewer than _MIN_BATCHES fit.  Given each value's
    chain_index, batches are cut in chain-major order (a stable sort), so
    they follow each chain; cut across the chains of mcmc_chain's step-major
    output, they would span a few steps and understate the SEs.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 3:
        raise ValueError("need a flat list of at least 3 values")
    n = len(values)
    k1, k2, k3 = _k123(values)

    n_batches = min(_MAX_BATCHES, n // 3)
    if n_batches < _MIN_BATCHES:
        return KStats(k1, k2, k3, math.nan, math.nan, math.nan)
    if chain_index is not None:
        values = values[np.argsort(chain_index, kind="stable")]
    batch_len = n // n_batches
    trimmed = values[: n_batches * batch_len].reshape(n_batches, batch_len)
    stats = np.array([_k123(row) for row in trimmed])
    ses = stats.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return KStats(k1, k2, k3, float(ses[0]), float(ses[1]), float(ses[2]))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_sample_csv(batch: SampleBatch, path: str) -> None:
    """Write `chain,step,theta,S,lambda_1..lambda_m` with round-trip floats."""
    m = batch.spectra.shape[1]
    header = "chain,step,theta,S," + ",".join(f"lambda_{i+1}" for i in range(m))
    columns = [batch.chain_index, batch.step_index, batch.thetas, batch.entropies]
    _write_csv(path, header, columns + list(batch.spectra.T))


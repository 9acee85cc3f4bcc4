"""Random spectra from the Bures-Hall ensemble.

Two backends:

* ``mcmc_chain`` targets the unconstrained eigenvalue density

      h(x) ~ prod_{i<j} (x_i - x_j)^2 / (x_i + x_j) * prod_i x_i^alpha e^{-x_i}

  and projects x -> lambda = x / theta.  The factorization h(x) dx =
  f(lambda) g(theta) dtheta dlambda (theta ~ Gamma(d)) makes the projected
  spectra exactly Bures-Hall distributed and independent of theta.  So the
  chains integrate theta out: each step makes one random-walk move on the
  marginal of the spectrum's shape, and each kept spectrum gets an exact
  draw of theta ~ Gamma(d) (the collapsed sampler of Liu 1994, JASA
  89:958).  Chains run vectorized; every chain owns two RNG streams, for
  its moves and its traces, spawned from (seed, chain index), so batches
  are bit-reproducible and merging is deterministic by chain index; the
  chains share only the step size that burn-in tunes, so without burn-in a
  chain's rows do not depend on the chains beside it.  The chains run in
  two phases: burn-in, in windows of _TUNE_WINDOW steps with the step size
  retuned between them, then one run per output block with the step size
  frozen.  The step loop is bound by per-call numpy overhead on small
  arrays, so a step does little: its draws, and every part of the
  acceptance test that does not depend on the state, come from step-major
  blocks, and it evaluates the pair term once, with one log.

* ``sample_matrix_model_batch`` draws the reduced density matrix directly for
  n = m, where the unitary weight is flat: M = (I+U) Z Z* (I+U)* with Z
  complex Ginibre and U Haar unitary, spectrum = eig(M) / tr(M).

Both return a ``SampleBatch``, which draws its samples as they are read, a
block at a time, in sample order: about _ROWS kept rows of whole steps from
the kernel, and one draw of _MATRIX_BLOCK matrices from the matrix backend.
A reader such as the CSV writer takes each block's spectra and traces as it
comes, and no block is kept, so no command holds all samples x m floats; the
batch keeps only every sample's entropy.  The CSV writer hands each block's
columns to a writer process, forked before the first block is drawn, which
formats and writes them while the kernel draws the next block.  The
kernel's block size changes no drawn value: it draws _BLOCK steps at a
time into buffers allocated once, and the matrix backend fills the same
four normal arrays at every draw.

Also here: the unbiased k-statistics with batch-means standard errors used
by every Monte Carlo acceptance check, whose batches follow each chain when
the chain index is given, and the sample CSV writer.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .cumulants import EnsembleDims
from .fileio import _write_csv


class _Chain(NamedTuple):
    samples: int
    burn_in: int = 2000
    thinning: int = 10
    chain_count: int = 64
    seed: int = 0


class ChainConfig(_Chain):
    """Metropolis chain settings, validated on construction.  The trace is
    integrated out of the kernel, so the only step size is the shape move's:
    it starts at 0.25/sqrt(m), burn-in tunes it to acceptance in [0.2, 0.5],
    and it stays frozen after.  It has no lower bound (see _retune)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)


class Provenance(NamedTuple):
    dims: EnsembleDims
    config: Optional[ChainConfig]


class Block(NamedTuple):
    """Consecutive rows of a SampleBatch."""

    chain_index: np.ndarray
    step_index: np.ndarray
    thetas: np.ndarray
    entropies: np.ndarray
    spectra: np.ndarray  # (rows, m)


class SampleBatch:
    """The samples of one run, drawn a block at a time as they are read.

    Iterating yields its Blocks in sample order, each drawn when it is asked
    for, and can be done once; no block is kept.  entropies fills in as the
    blocks are drawn, and reading it draws the blocks that are left.  Sample
    r is chain r % chains at step first_step + stride * (r // chains): MCMC
    samples are step-major over the chains, and the matrix backend is one
    chain of consecutive steps.  So chain_index and step_index are computed
    when read, not kept.  len() counts the samples.  kernel holds the MCMC
    kernel's diagnostics as the blocks are drawn (see mcmc_chain); the
    matrix backend leaves it empty.
    """

    def __init__(self, draws: Iterator, samples: int, chains: int, first_step: int, stride: int,
                 provenance: Provenance, kernel: Optional[dict] = None):
        self.provenance = provenance
        self.kernel = {} if kernel is None else kernel
        self._layout = chains, first_step, stride
        self._entropies = np.empty(samples)
        self._stream = self._fill(draws)
        self._read = False

    def __len__(self):
        return len(self._entropies)

    def _indices(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The chain and step indices of samples start..stop-1."""
        chains, first_step, stride = self._layout
        rows = np.arange(start, stop)
        return rows % chains, first_step + stride * (rows // chains)

    @property
    def chain_index(self) -> np.ndarray:
        return np.arange(len(self)) % self._layout[0]

    @property
    def step_index(self) -> np.ndarray:
        return self._indices(0, len(self))[1]

    def _fill(self, draws: Iterator) -> Iterator[Block]:
        """Blocks from the backend's (spectra, thetas) pairs, with entropies."""
        start = 0
        for spectra, thetas in draws:
            stop = start + len(thetas)
            entropies = self._entropies[start:stop]
            entropies[:] = _entropies(spectra)
            yield Block(*self._indices(start, stop), thetas, entropies, spectra)
            start = stop

    def __iter__(self) -> Iterator[Block]:
        if self._read:
            raise RuntimeError("the blocks of a SampleBatch can be read once")
        self._read = True
        return self._stream

    @property
    def entropies(self) -> np.ndarray:
        self._read = True
        for _ in self._stream:
            pass
        return self._entropies


# ---------------------------------------------------------------------------
# Metropolis backend
# ---------------------------------------------------------------------------

_ROWS = 2048  # kept rows per block, about: a block holds whole steps
_BLOCK = 512
_TUNE_WINDOW = 100
_STEP_MAX = 5.0
_ACCEPT_MIN = 0.2  # the tuner's floor; simulate warns below half of it


def _retune(sigma: float, rate: float) -> float:
    """Shrink a step whose acceptance rate fell below _ACCEPT_MIN, widen one
    above 0.5 up to _STEP_MAX, which binds only at m = 1, where the move is
    empty.  No lower bound: the target narrows like 1/sqrt(n), and the step
    must follow; a step below the relative float spacing of v proposes the
    state itself, which is accepted, so the next window widens it again."""
    if rate < _ACCEPT_MIN:
        return sigma * 0.6
    if rate > 0.5:
        return min(sigma * 1.5, _STEP_MAX)
    return sigma


def _pair_term(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Row-wise pair term sum_{i<j} [2 ln|x_i - x_j| - ln(x_i + x_j)] of the
    unconstrained log-density, which at x is the pair term + alpha *
    sum(ln x) - sum(x).  The pair term is homogeneous: scaling a row by c
    adds m(m - 1)/2 * ln c.

    pairs is concat(i, j) over the index pairs i < j.  Coinciding x_i give
    log 0 = -inf, so call inside np.errstate(divide="ignore").
    """
    ends = x[:, pairs]
    half = len(pairs) // 2
    a, b = ends[:, :half], ends[:, half:]
    d = a - b
    d *= d
    d /= a + b
    np.log(d, out=d)
    return d.sum(axis=1)


def _entropies(lam: np.ndarray) -> np.ndarray:
    """Row-wise von Neumann entropies with 0 ln 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # + 0.0 turns the -0.0 of a pure spectrum into 0.0
        return -np.where(lam > 0, lam * np.log(lam), 0.0).sum(axis=1) + 0.0


def mcmc_chain(dims: EnsembleDims, config: ChainConfig) -> SampleBatch:
    """Sample the unconstrained ensemble and project to the simplex.

    Returns config.samples spectra merged from chain_count chains in
    step-major, chain-minor order, drawn as the batch is read, in blocks of
    max(1, _ROWS // chain_count) kept steps.  Bit-identical for identical
    arguments.  The batch's kernel dict holds the shape move's step size
    (frozen after burn-in) and its acceptance rate after burn-in, over the
    steps drawn so far.
    """
    n_chains = config.chain_count
    block_steps = max(1, _ROWS // n_chains)
    kernel: dict = {}
    return SampleBatch(_mcmc_draws(dims, config, block_steps, kernel), config.samples,
                       chains=n_chains, first_step=config.burn_in + config.thinning - 1,
                       stride=config.thinning, provenance=Provenance(dims, config),
                       kernel=kernel)


def _mcmc_draws(dims: EnsembleDims, config: ChainConfig, block_steps: int,
                kernel: dict) -> Iterator:
    """mcmc_chain's (spectra, thetas) blocks: block_steps kept steps each,
    the last one fewer and trimmed to config.samples rows.

    theta is independent of lambda and the pair term is homogeneous, so
    the marginal of the spectrum's shape has log-density pair(v) - d ln
    sum(v) at the point v of its ray with sum(ln v) fixed.  A chain's state
    is such a v > 0, with the pair term q at v and s, the running sum of v.
    A step makes one random-walk move z = v e^delta, symmetric in ln v,
    whose increment delta = sigma * (normal - mean(normal)) sums to 0.
    With e = expm1(delta) it is accepted when

        pair(z) - q - d log1p(sum(v e) / s) > ln U,

    and then v = z and s += sum(v e).  No term grows like n, where a test
    on the trace theta ~ m n rounds by about theta 2^-53.  e and ln U are
    laid down with the draws, a block of _BLOCK steps at a time, step-major
    so that one step's draws for all chains are contiguous; each chain
    fills its slice in a fixed order (normals, uniforms).

    The chains run in two phases.  Burn-in runs _TUNE_WINDOW steps at a
    time; after each window it retunes sigma and rescales the increments
    left in the draw block, and its last, partial window runs untuned.
    sigma then stays frozen, and each output block is block_steps *
    thinning steps, of which every thinning-th reports lambda = v / sum(v)
    and an exact Gamma(d) trace from the chain's second generator.  Each
    block is a new array, since a reader may still hold the ones before.
    """
    m = dims.m
    d_shape = float(dims.d)
    n_chains, thinning = config.chain_count, config.thinning
    kept_per_chain = -(-config.samples // n_chains)
    undrawn = config.burn_in + thinning * kept_per_chain  # steps not yet in the draw buffers

    children = np.random.SeedSequence(config.seed).spawn(n_chains)
    gens = [np.random.Generator(np.random.PCG64(child)) for child in children]
    trace_gens = [np.random.Generator(np.random.PCG64(child.spawn(1)[0])) for child in children]

    # the pairs i < j as concat(i, j); empty at m = 1, where the pair term is 0
    pairs = np.concatenate(np.triu_indices(m, 1))
    v = np.empty((n_chains, m))
    for c, g in enumerate(gens):
        v[c] = g.gamma(dims.alpha + 1.0, 1.0, size=m)
    # draws that round to equal floats give q = -inf, and the chain accepts
    # its first proposal whose coordinates differ
    with np.errstate(divide="ignore"):
        q = _pair_term(v, pairs)
    s = v.sum(axis=1)

    sigma = 0.25 / math.sqrt(m)
    growth = np.empty((_BLOCK, n_chains, m))  # expm1(delta)
    log_u = np.empty((_BLOCK, n_chains))
    t = nblock = 0  # t steps of the nblock in the draw buffers are done
    accepted = 0  # in the tuning window, then after burn-in

    def run(steps: int, lam_out=None) -> None:
        """Advance every chain by steps steps, keeping every thinning-th
        spectrum in lam_out when it is given."""
        nonlocal t, nblock, undrawn, accepted
        with np.errstate(divide="ignore"):
            for i in range(steps):
                if t == nblock:
                    nblock, t = min(_BLOCK, undrawn), 0
                    undrawn -= nblock
                    block = slice(0, nblock)
                    for c, g in enumerate(gens):
                        growth[block, c] = g.standard_normal((nblock, m))
                        log_u[block, c] = g.random(nblock)
                    growth[block] -= growth[block].mean(axis=2, keepdims=True)
                    growth[block] *= sigma
                    np.expm1(growth[block], out=growth[block])
                    np.log(log_u[block], out=log_u[block])

                w = v * growth[t]
                z = w + v
                pair = _pair_term(z, pairs)
                grown = w.sum(axis=1)
                gain = pair - d_shape * np.log1p(grown / s)
                gain -= log_u[t]
                accept = gain > q
                np.copyto(v, z, where=accept[:, None])
                np.copyto(q, pair, where=accept)
                np.add(s, grown, out=s, where=accept)
                accepted += np.count_nonzero(accept)

                if lam_out is not None and i % thinning == thinning - 1:
                    np.divide(v, v.sum(axis=1, keepdims=True), out=lam_out[i // thinning])
                t += 1

    for _ in range(config.burn_in // _TUNE_WINDOW):
        run(_TUNE_WINDOW)
        tuned = _retune(sigma, accepted / (_TUNE_WINDOW * n_chains))
        rest = np.log1p(growth[t:nblock], out=growth[t:nblock])
        rest *= tuned / sigma
        np.expm1(rest, out=rest)
        sigma, accepted = tuned, 0
    run(config.burn_in % _TUNE_WINDOW)
    accepted = 0

    for first in range(0, kept_per_chain, block_steps):
        size = min(block_steps, kept_per_chain - first)
        lam_out = np.empty((size, n_chains, m))
        run(size * thinning, lam_out)
        theta_out = np.stack([g.standard_gamma(d_shape, size) for g in trace_gens], axis=1)
        after_burn_in = (first + size) * thinning
        kernel.update(step_size=sigma, acceptance=float(accepted / (after_burn_in * n_chains)))
        rows = min(size * n_chains, config.samples - first * n_chains)
        yield lam_out.reshape(-1, m)[:rows], theta_out.reshape(-1)[:rows]


# ---------------------------------------------------------------------------
# matrix-model backend (n = m only)
# ---------------------------------------------------------------------------

def _ginibre(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices (re + i im) / sqrt(2) from standard normals."""
    z = re + 1j * im
    z /= math.sqrt(2.0)
    return z


def _haar_unitary(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(re, im))
    diag = np.einsum("...ii->...i", r)
    q *= (diag / np.abs(diag))[:, None, :]
    return q


_MATRIX_BLOCK = 2048  # matrices per block of the matrix backend


def sample_matrix_model_batch(m: int, count: int, seed: int) -> SampleBatch:
    """count spectra from the n = m matrix model M = (I+U) Z Z* (I+U)*."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return SampleBatch(_matrix_draws(m, count, seed), count, chains=1,
                       first_step=0, stride=1,
                       provenance=Provenance(EnsembleDims(m, m), None))


def _matrix_draws(m: int, count: int, seed: int) -> Iterator:
    """sample_matrix_model_batch's (spectra, thetas) blocks, _MATRIX_BLOCK
    matrices each, the last one fewer.  A block fills the normal parts of
    U's and Z's Ginibre matrices, in that order, into the same four arrays
    each time."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    normals = np.empty((4, min(_MATRIX_BLOCK, count), m, m))
    eye = np.eye(m)
    for done in range(0, count, _MATRIX_BLOCK):
        nb = min(_MATRIX_BLOCK, count - done)
        for part in normals:
            gen.standard_normal(out=part[:nb])
        u_re, u_im, z_re, z_im = normals[:, :nb]
        w = (eye + _haar_unitary(u_re, u_im)) @ _ginibre(z_re, z_im)
        lam = np.linalg.eigvalsh(w @ w.conj().transpose(0, 2, 1))  # ascending, real
        trace = lam.sum(axis=1)
        lam = lam / trace[:, None]
        if lam.min() < -1e-12:
            raise ValueError(f"eigenvalue below round-off tolerance: {lam.min()}")
        lam = np.clip(lam, 0.0, None)
        sums = lam.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("spectrum normalization drifted beyond 1e-12")
        lam /= sums[:, None]
        yield lam[:, ::-1].copy(), trace  # descending


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
    """Write `chain,step,theta,S,lambda_1..lambda_m` with round-trip floats,
    each block of the batch as it is drawn (through fileio._write_csv, in a
    writer process forked before the first block is drawn)."""
    m = batch.provenance.dims.m
    header = "chain,step,theta,S," + ",".join(f"lambda_{i+1}" for i in range(m))
    blocks = ([b.chain_index, b.step_index, b.thetas, b.entropies, *b.spectra.T] for b in batch)
    _write_csv(path, header, blocks)

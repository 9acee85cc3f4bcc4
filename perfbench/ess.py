"""Rank-normalized bulk effective sample size (Vehtari, Gelman, Simpson,
Carpenter & Buerkner 2021, Bayesian Analysis 16:667, section 3).

The draws are pooled and replaced by normal scores of their ranks, each chain
is split into halves, and the multi-chain autocorrelation estimate is summed
over lags with Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri


def chains_from_columns(chain, step, values) -> np.ndarray:
    """Arrange flat (chain, step, value) columns as a (chains, draws) array.

    Each chain is ordered by step.  Chains of unequal length are cut to the
    shortest, so the last, partly filled step of a sample CSV is dropped.
    """
    chain = np.asarray(chain)
    order = np.lexsort((np.asarray(step), chain))
    chain, values = chain[order], np.asarray(values, dtype=float)[order]
    _, starts, counts = np.unique(chain, return_index=True, return_counts=True)
    n = int(counts.min())
    return np.stack([values[s : s + n] for s in starts])


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..N of a flat array, ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    first = np.r_[True, xs[1:] != xs[:-1]]
    group = np.cumsum(first) - 1
    bounds = np.r_[np.flatnonzero(first), len(xs)]
    ranks = np.empty(len(xs))
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, by FFT."""
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def _ess_of_chains(x: np.ndarray) -> float:
    n_chains, n = x.shape
    acov = _autocovariance(x)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if n_chains > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho_bar = acov.mean(axis=0)

    def rho(t: int) -> float:
        return 1.0 - (mean_var - rho_bar[t]) / var_plus

    # Geyer's initial positive sequence over pairs of lags (2k, 2k+1)
    pairs = []
    t = 0
    while t + 1 < n:
        p = (1.0 if t == 0 else rho(t)) + rho(t + 1)
        if p <= 0.0:
            break
        pairs.append(p)
        t += 2
    # ... made monotone non-increasing
    for k in range(1, len(pairs)):
        pairs[k] = min(pairs[k], pairs[k - 1])
    tau = -1.0 + 2.0 * sum(pairs)
    total = n_chains * n
    return total / max(tau, 1.0 / math.log10(total))


def bulk_ess(draws: np.ndarray) -> float:
    """Bulk ESS of a (chains, draws) array of scalar draws."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] < 4:
        raise ValueError("need a (chains, draws) array with at least 4 draws per chain")
    half = draws.shape[1] // 2
    split = np.concatenate([draws[:, :half], draws[:, -half:]])
    ranks = average_ranks(split.ravel()).reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return _ess_of_chains(z)

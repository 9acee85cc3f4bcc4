"""Standardized entropy, Gaussian and skewness-corrected densities.

The standardized entropy X = (S - kappa1)/sqrt(kappa2) has mean 0 and
variance 1; its density is approximated by the standard Gaussian phi(x) and
refined with the third-cumulant correction

    f_X(x) = phi(x) (1 + kappa3 / (6 kappa2^(3/2)) (x^3 - 3x)).

The Hermite factor (x^3 - 3x) integrates to zero against phi and leaves the
first two moments untouched, so the correction changes only the asymmetry.
It can dip slightly negative in the far tails; values are reported as-is
because clipping would break the moment identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulants import DegenerateEnsembleError, EnsembleDims, cumulant_set
from .fileio import _write_csv

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 compat


@dataclass(frozen=True)
class DensityGrid:
    xs: np.ndarray
    gaussian: np.ndarray
    edgeworth: np.ndarray
    histogram: np.ndarray


@dataclass(frozen=True)
class DensityComparison:
    grid: DensityGrid
    l1_gaussian: float
    l1_edgeworth: float
    sup_gaussian: float
    sup_edgeworth: float
    n_samples: int


def _nondegenerate_set(dims: EnsembleDims):
    if dims.m < 2:
        raise DegenerateEnsembleError("S is identically 0 for m = 1")
    return cumulant_set(dims)


def skew_coefficient(dims: EnsembleDims) -> float:
    """kappa3 / (6 kappa2^(3/2)), the coefficient of the Hermite correction."""
    return _nondegenerate_set(dims).skew_coefficient


def standardize(samples, dims: EnsembleDims) -> np.ndarray:
    """(S - kappa1)/sqrt(kappa2) using the exact cumulants."""
    return _standardize(samples, _nondegenerate_set(dims))


def _standardize(samples, cs) -> np.ndarray:
    return (np.asarray(samples, dtype=float) - cs.kappa1_f) / cs.sd


def gaussian_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def edgeworth_pdf(x, dims: EnsembleDims):
    """Gaussian density with the cubic skewness correction for these dims."""
    return _edgeworth_pdf(x, skew_coefficient(dims))


def _edgeworth_pdf(x, coef: float):
    x = np.asarray(x, dtype=float)
    out = gaussian_pdf(x) * (1.0 + coef * (x ** 3 - 3.0 * x))
    return float(out) if np.ndim(out) == 0 else out


def _histogram_on_grid(samples: np.ndarray, xs: np.ndarray, bins) -> np.ndarray:
    counts, edges = np.histogram(samples, bins=bins, density=True)
    idx = np.searchsorted(edges, xs, side="right") - 1
    vals = np.zeros_like(xs)
    inside = (idx >= 0) & (idx < len(counts))
    vals[inside] = counts[idx[inside]]
    return vals


def density_comparison(
    samples,
    dims: EnsembleDims,
    grid: tuple[float, float, int] = (-6.0, 6.0, 1201),
    bins="fd",
) -> DensityComparison:
    """Histogram of standardized samples against the two model densities.

    Distances are computed on the grid: L1 by the trapezoid rule, sup as the
    max pointwise gap.  Needs at least 10^4 samples; bins defaults to
    Freedman-Diaconis.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 10_000:
        raise ValueError(f"need at least 10^4 samples, got {len(samples)}")
    lo, hi, count = grid
    if not (hi > lo and count >= 2):
        raise ValueError("grid must be (lo, hi, count) with hi > lo and count >= 2")
    xs = np.linspace(lo, hi, int(count))
    cs = _nondegenerate_set(dims)
    std = _standardize(samples, cs)
    gauss = gaussian_pdf(xs)
    edge = _edgeworth_pdf(xs, cs.skew_coefficient)
    hist = _histogram_on_grid(std, xs, bins)
    l1_g = float(_trapezoid(np.abs(hist - gauss), xs))
    l1_e = float(_trapezoid(np.abs(hist - edge), xs))
    return DensityComparison(
        grid=DensityGrid(xs=xs, gaussian=gauss, edgeworth=edge, histogram=hist),
        l1_gaussian=l1_g,
        l1_edgeworth=l1_e,
        sup_gaussian=float(np.max(np.abs(hist - gauss))),
        sup_edgeworth=float(np.max(np.abs(hist - edge))),
        n_samples=len(samples),
    )


def write_density_csv(grid: DensityGrid, path: str) -> None:
    """Write `x,gaussian,edgeworth,histogram` with round-trip floats."""
    _write_csv(path, "x,gaussian,edgeworth,histogram",
              [grid.xs, grid.gaussian, grid.edgeworth, grid.histogram])

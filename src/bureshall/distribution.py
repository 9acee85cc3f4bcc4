"""Standardized entropy, Gaussian and skewness-corrected densities.

The standardized entropy X = (S - kappa1)/sqrt(kappa2) has mean 0 and
variance 1; its density is approximated by the standard Gaussian phi(x) and
refined with the third-cumulant correction

    f_X(x) = phi(x) (1 + kappa3 / (6 kappa2^(3/2)) (x^3 - 3x)).

The Hermite factor (x^3 - 3x) integrates to zero against phi and leaves the
first two moments untouched, so the correction changes only the asymmetry.
It can dip slightly negative in the far tails; values are reported as-is
because clipping would break the moment identities.  edgeworth_pdf takes the
coefficient itself, so that its callers evaluate the cumulants once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cumulants import EnsembleDims, _nondegenerate_set
from .fileio import _write_csv

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 compat

_GRID = (-6.0, 6.0, 1201)  # density_comparison's grid: lo, hi, point count
_BINS = "fd"  # Freedman-Diaconis histogram bins


class DensityGrid(NamedTuple):
    xs: np.ndarray
    gaussian: np.ndarray
    edgeworth: np.ndarray
    histogram: np.ndarray


class DensityComparison(NamedTuple):
    grid: DensityGrid
    l1_gaussian: float
    l1_edgeworth: float
    sup_gaussian: float
    sup_edgeworth: float


def gaussian_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def edgeworth_pdf(x, coef: float):
    """Gaussian density with the cubic skewness correction of coefficient
    coef = kappa3 / (6 kappa2^(3/2)), cumulant_set(dims).skew_coefficient."""
    x = np.asarray(x, dtype=float)
    return gaussian_pdf(x) * (1.0 + coef * (x ** 3 - 3.0 * x))


def _histogram_on_grid(samples: np.ndarray, xs: np.ndarray) -> np.ndarray:
    counts, edges = np.histogram(samples, bins=_BINS, density=True)
    idx = np.searchsorted(edges, xs, side="right") - 1
    vals = np.zeros_like(xs)
    inside = (idx >= 0) & (idx < len(counts))
    vals[inside] = counts[idx[inside]]
    return vals


def density_comparison(samples, dims: EnsembleDims) -> DensityComparison:
    """Histogram of standardized samples against the two model densities.

    Samples are standardized as (S - kappa1)/sqrt(kappa2) with the exact
    cumulants.  Distances are computed on _GRID: L1 by the trapezoid rule,
    sup as the max pointwise gap.  Needs at least 10^4 samples.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 10_000:
        raise ValueError(f"need at least 10^4 samples, got {len(samples)}")
    xs = np.linspace(*_GRID)
    cs = _nondegenerate_set(dims)
    std = (samples - cs.kappa1_f) / cs.sd
    gauss = gaussian_pdf(xs)
    edge = edgeworth_pdf(xs, cs.skew_coefficient)
    hist = _histogram_on_grid(std, xs)
    l1_g = float(_trapezoid(np.abs(hist - gauss), xs))
    l1_e = float(_trapezoid(np.abs(hist - edge), xs))
    return DensityComparison(
        grid=DensityGrid(xs=xs, gaussian=gauss, edgeworth=edge, histogram=hist),
        l1_gaussian=l1_g,
        l1_edgeworth=l1_e,
        sup_gaussian=float(np.max(np.abs(hist - gauss))),
        sup_edgeworth=float(np.max(np.abs(hist - edge))),
    )


def write_density_csv(grid: DensityGrid, path: str) -> None:
    """Write `x,gaussian,edgeworth,histogram` with round-trip floats."""
    _write_csv(path, "x,gaussian,edgeworth,histogram",
               [[grid.xs, grid.gaussian, grid.edgeworth, grid.histogram]])

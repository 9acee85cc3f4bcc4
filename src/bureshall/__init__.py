"""Exact cumulants and skewness of von Neumann entropy over the Bures-Hall
ensemble of random bipartite quantum states, together with independent
numerical oracles (quadrature, Monte Carlo) and an exact verifier for the
summation-identity apparatus behind the closed forms.

The constant ring (ConstPoly and the constants GAMMA, LN2, ZETA2, ZETA3)
lives in bureshall.ring, which only exact arithmetic loads."""

from .polygamma import psi_exact
from .cumulants import (
    CumulantSet,
    EnsembleDims,
    cumulant_set,
    kappa1,
    kappa2,
    kappa3,
    kappa3_unconstrained,
    moments_cumulants_convert,
    skewness,
    unconstrained_moments,
)

__all__ = [
    "psi_exact",
    "EnsembleDims",
    "CumulantSet",
    "cumulant_set",
    "kappa1",
    "kappa2",
    "kappa3",
    "kappa3_unconstrained",
    "skewness",
    "moments_cumulants_convert",
    "unconstrained_moments",
]

__version__ = "0.1.0"

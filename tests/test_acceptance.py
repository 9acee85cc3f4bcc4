"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and match the package's documented
guarantees.  Monte Carlo criteria use fixed seeds, batch-means standard
errors over chain-major batches and 4-SE bands.
"""

import math
import time

import numpy as np
import pytest
from sample_helpers import collect, entropies_T
from scipy import integrate, stats

from bureshall.cumulants import (
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
from bureshall.distribution import density_comparison, edgeworth_pdf
from bureshall.identities import (
    default_grid,
    degenerate_anomaly_check,
    identity_residual,
    resummation_telescope_check,
    telescope_grid,
)
from bureshall.quadrature import normalization_check, oracle_cumulants
from bureshall.sampler import ChainConfig, k_statistics, mcmc_chain


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_m1_degeneracy():
    start = time.time()
    ok = True
    for n in range(1, 51):
        dims = EnsembleDims(1, n)
        ok &= kappa1(dims).is_zero() and kappa2(dims).is_zero() and kappa3(dims).is_zero()
    elapsed = time.time() - start
    report(1, "m=1 cumulants are the zero polynomial for n in [1,50]",
           ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_quadrature_vs_closed_forms():
    worst = 0.0
    for m, ns, tol in ((2, (2, 3, 5, 10), 1e-8), (3, (3, 4, 6), 1e-6)):
        for n in ns:
            dims = EnsembleDims(m, n)
            oracle = oracle_cumulants(dims)
            exact = [float(kappa1(dims)), float(kappa2(dims)), float(kappa3(dims))]
            for r, e in zip(oracle, exact):
                worst = max(worst, abs(r.value - e) / tol)
    # the anchor value kappa3(2,2) = 75/8 z3 - 33/160 z2 - 295/27
    anchor = abs(float(kappa3(EnsembleDims(2, 2))) - 0.0040898899078238)
    report(2, "quadrature oracle matches kappa1..kappa3 (m=2 @1e-8, m=3 @1e-6)",
           worst <= 1.0 and anchor < 1e-12, f"worst diff {worst:.2e}x tol")


def test_criterion_03_normalization():
    ok = True
    worst = 0.0
    for m, ns, tol in ((2, (2, 3, 5, 10), 1e-10), (3, (3, 4, 6), 1e-7)):
        for n in ns:
            res = normalization_check(EnsembleDims(m, n))
            err = abs(res.value - 1.0)
            worst = max(worst, err / tol)
            ok &= err <= tol
    report(3, "density normalization with the exact constant", ok,
           f"worst {worst:.2e}x tol")


def test_criterion_04_identity_suite():
    start = time.time()
    cases = default_grid(max_m=8)
    failures = [cs for cs in cases if not identity_residual(cs).is_zero()]
    tele = telescope_grid()
    failures += [tc for tc in tele
                 if not resummation_telescope_check(tc.identity_id, tc.m, tc.b).is_zero()]
    elapsed = time.time() - start
    report(4, "summation identities: exact zero residual on the full grid",
           len(cases) >= 500 and not failures and elapsed < 120,
           f"{len(cases)} identity cases + {len(tele)} telescopes, {elapsed:.1f}s")


def test_criterion_05_anomaly_degeneracies():
    relations = [r for m in range(1, 21) for r in degenerate_anomaly_check(m)]
    ok = len(relations) == 60 and all(residual.is_zero() for _, residual in relations)
    names = sorted({name for name, _ in relations})
    report(5, "anomaly degeneracies at a=m for m in [1,20]", ok, ", ".join(names))


def test_criterion_06_mcmc_validity():
    start = time.time()
    n_samples = 50_000
    ok = True
    details = []
    for i, (m, n) in enumerate(((2, 2), (3, 4), (4, 6))):
        dims = EnsembleDims(m, n)
        cfg = ChainConfig(samples=n_samples, burn_in=2000, thinning=20,
                          chain_count=100, seed=101 + i)
        batch = collect(mcmc_chain(dims, cfg))
        ks = stats.kstest(batch.thetas, "gamma", args=(float(dims.d),))
        corr = float(np.corrcoef(batch.thetas, batch.entropies)[0, 1])
        ok &= ks.pvalue > 0.01 and abs(corr) < 4 / math.sqrt(n_samples)
        details.append(f"({m},{n}) p={ks.pvalue:.3f} r={corr:+.4f}")
    elapsed = time.time() - start
    report(6, "trace is Gamma(d,1) and independent of S (KS @0.01, |r|<4/sqrt(N))",
           ok and elapsed < 300, "; ".join(details))


def test_criterion_07_monte_carlo_vs_formulas():
    start = time.time()
    ok = True
    details = []
    for i, (m, n) in enumerate(((3, 3), (4, 8), (5, 15))):
        dims = EnsembleDims(m, n)
        cfg = ChainConfig(samples=100_000, burn_in=2000, thinning=20,
                          chain_count=100, seed=202 + i)
        batch = mcmc_chain(dims, cfg)
        st = k_statistics(batch.entropies, batch.chains)
        zs = (
            (st.k1 - float(kappa1(dims))) / st.se1,
            (st.k2 - float(kappa2(dims))) / st.se2,
            (st.k3 - float(kappa3(dims))) / st.se3,
        )
        ok &= all(abs(z) <= 4 for z in zs)
        details.append(f"({m},{n}) z=({zs[0]:+.1f},{zs[1]:+.1f},{zs[2]:+.1f})")
    elapsed = time.time() - start
    report(7, "sample k1,k2,k3 within 4 SE of closed forms at N=1e5",
           ok and elapsed < 600, "; ".join(details) + f", {elapsed:.0f}s")


def _kappa3_T_oracle(dims):
    """kappa3 of the exact moments of T = theta ln theta - theta S."""
    return moments_cumulants_convert(unconstrained_moments(dims), "moments_to_cumulants")[2]


def test_criterion_08_unconstrained_third_cumulant():
    dims11 = EnsembleDims(1, 1)
    oracle = _kappa3_T_oracle(dims11)
    formula = kappa3_unconstrained(dims11)
    exact_match = (formula - oracle).is_zero()
    float_match = abs(float(formula) - float(oracle)) < 1e-9
    anchor = abs(float(formula) - 4.3238289) < 1e-6

    ok_mc = True
    details = []
    for i, (m, n) in enumerate(((2, 2), (3, 4))):
        dims = EnsembleDims(m, n)
        cfg = ChainConfig(samples=200_000, burn_in=2000, thinning=20,
                          chain_count=100, seed=303 + i)
        exact_match &= (kappa3_unconstrained(dims) - _kappa3_T_oracle(dims)).is_zero()
        batch = collect(mcmc_chain(dims, cfg))
        st = k_statistics(entropies_T(batch.thetas, batch.entropies), cfg.chain_count)
        z = (st.k3 - float(kappa3_unconstrained(dims))) / st.se3
        ok_mc &= abs(z) <= 4
        details.append(f"({m},{n}) z={z:+.2f}")
    report(8, "kappa3_T: exact factorization match at (1,1),(2,2),(3,4); MC at (2,2),(3,4)",
           exact_match and float_match and anchor and ok_mc, "; ".join(details))


def test_criterion_09_moment_conversion():
    # E_h[T^3] from the trace factorization of kappa1..kappa3 of S
    # m = 1: exact collapse of the factorization in the ring
    from bureshall.polygamma import psi_exact
    from bureshall.ring import ConstPoly

    collapse_ok = True
    for n in (1, 2, 5):
        dims = EnsembleDims(1, n)
        d = dims.d
        poch3 = d * (d + 1) * (d + 2)
        arg = dims.d + 3
        p0, p1, p2 = (psi_exact(k, arg) for k in (0, 1, 2))
        closed = ConstPoly.const(poch3) * (p0 ** 3 + 3 * p0 * p1 + p2)
        collapse_ok &= (unconstrained_moments(dims)[2] - closed).is_zero()

    ok_mc = True
    details = []
    for i, (m, n) in enumerate(((2, 2), (4, 6))):
        dims = EnsembleDims(m, n)
        cfg = ChainConfig(samples=200_000, burn_in=2000, thinning=20,
                          chain_count=100, seed=404 + i)
        batch = collect(mcmc_chain(dims, cfg))
        t_cubed = entropies_T(batch.thetas, batch.entropies) ** 3
        st = k_statistics(t_cubed, cfg.chain_count)
        z = (st.k1 - float(unconstrained_moments(dims)[2])) / st.se1
        ok_mc &= abs(z) <= 4
        details.append(f"({m},{n}) z={z:+.1f}")
    report(9, "E_h[T^3] from the trace factorization (exact m=1 collapse; MC elsewhere)",
           collapse_ok and ok_mc, "; ".join(details))


def test_criterion_10_figure1_edgeworth_beats_gaussian():
    dims = EnsembleDims(4, 6)
    cfg = ChainConfig(samples=200_000, burn_in=2000, thinning=10,
                      chain_count=100, seed=7)
    batch = mcmc_chain(dims, cfg)
    comp = density_comparison(batch.entropies, dims)
    report(10, "skewness-corrected density beats the Gaussian in L1 at (4,6)",
           comp.l1_edgeworth < comp.l1_gaussian,
           f"L1 gauss={comp.l1_gaussian:.4f} corrected={comp.l1_edgeworth:.4f}")


def test_criterion_11_asymptotic_decay():
    s = {n: skewness(EnsembleDims(n // 2, n)) for n in (16, 32, 64)}
    r1, r2 = s[16] / s[32], s[32] / s[64]
    ok = abs(r1 - 2) <= 0.3 and abs(r2 - 2) <= 0.3
    report(11, "standardized third cumulant halves as n doubles (m=n/2)",
           ok, f"ratios {r1:.3f}, {r2:.3f}")


def test_criterion_12_edgeworth_moment_preservation():
    coef = cumulant_set(EnsembleDims(4, 6)).skew_coefficient
    mass, _ = integrate.quad(lambda x: edgeworth_pdf(x, coef), -10, 10, limit=300)
    mean, _ = integrate.quad(lambda x: x * edgeworth_pdf(x, coef), -10, 10, limit=300)
    var, _ = integrate.quad(lambda x: x * x * edgeworth_pdf(x, coef), -10, 10, limit=300)
    ok = abs(mass - 1) < 1e-8 and abs(mean) < 1e-6 and abs(var - 1) < 1e-6
    report(12, "corrected density keeps mass 1 and first two moments (0,1)",
           ok, f"mass-1={mass-1:.1e} mean={mean:.1e} var-1={var-1:.1e}")

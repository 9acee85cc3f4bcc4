"""Per-layer metrics from the spans that trace_child.py writes.

Times of layer entry points are inclusive (the span's duration).  Ring
operations, `cumulant_set` and the CLI are reported by self time: the
span's duration minus that of its direct child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict

# name -> unit, in the order they are printed
PER_LAYER = {
    "ring.mul_calls": "count",
    "ring.mul_s": "s",
    "ring.add_calls": "count",
    "ring.add_s": "s",
    "ring.evalf_calls": "count",
    "ring.evalf_s": "s",
    "polygamma.psi_exact_calls": "count",
    "polygamma.psi_exact_s": "s",
    "polygamma.repeat_ratio": "ratio",
    "cumulants.cumulant_set_self_s": "s",
    "cumulants.kappa_calls_per_set": "count",
    "identities.cases": "count",
    "identities.residual_s": "s",
    "identities.telescope_s": "s",
    "identities.degeneracy_s": "s",
    "quadrature.evaluations": "count",
    "quadrature.normalization_s": "s",
    "quadrature.oracle_cumulants_s": "s",
    "quadrature.converged_ratio": "ratio",
    "sampler.mcmc_s": "s",
    "sampler.chain_steps_per_s": "1/s",
    "sampler.ess_per_kstep": "ratio",
    "sampler.csv_write_s": "s",
    "sampler.csv_bytes": "bytes",
    "sampler.matrix_s": "s",
    "sampler.kstats_s": "s",
    "distribution.density_comparison_s": "s",
    "distribution.write_density_csv_s": "s",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_files: list[str]) -> dict[str, float]:
    """Sum the spans of one traced command sequence into PER_LAYER metrics.

    A ratio whose base is empty on this sequence (a layer the workload
    never calls) is reported as 0.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    extra = defaultdict(lambda: [0.0, 0.0, 0.0])
    kappa_in_sets = 0
    for path in span_files:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, ext) in enumerate(spans):
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child_time[i]
            if ext:
                acc = extra[name]
                for k, v in enumerate(ext):
                    acc[k] += v
            if name == "cumulants.kappa":
                p = parent
                while p >= 0 and spans[p][0] != "cumulants.cumulant_set":
                    p = spans[p][3]
                kappa_in_sets += p >= 0

    quad = [a + b for a, b in zip(extra["quadrature.normalization"],
                                  extra["quadrature.oracle_cumulants"])]
    steps_total, steps_after_burn_in, ess = extra["sampler.mcmc"]
    return {
        "ring.mul_calls": calls["ring.mul"],
        "ring.mul_s": self_s["ring.mul"],
        "ring.add_calls": calls["ring.add"],
        "ring.add_s": self_s["ring.add"],
        "ring.evalf_calls": calls["ring.evalf"],
        "ring.evalf_s": self_s["ring.evalf"],
        "polygamma.psi_exact_calls": calls["polygamma.psi_exact"],
        "polygamma.psi_exact_s": incl["polygamma.psi_exact"],
        "polygamma.repeat_ratio": _ratio(extra["polygamma.psi_exact"][0],
                                         calls["polygamma.psi_exact"]),
        "cumulants.cumulant_set_self_s": self_s["cumulants.cumulant_set"],
        "cumulants.kappa_calls_per_set": _ratio(kappa_in_sets, calls["cumulants.cumulant_set"]),
        "identities.cases": (calls["identities.residual"] + calls["identities.telescope"]
                             + int(extra["identities.degeneracy"][0])),
        "identities.residual_s": incl["identities.residual"],
        "identities.telescope_s": incl["identities.telescope"],
        "identities.degeneracy_s": incl["identities.degeneracy"],
        "quadrature.evaluations": int(quad[0]),
        "quadrature.normalization_s": incl["quadrature.normalization"],
        "quadrature.oracle_cumulants_s": incl["quadrature.oracle_cumulants"],
        "quadrature.converged_ratio": _ratio(quad[1], quad[2]),
        "sampler.mcmc_s": incl["sampler.mcmc"],
        "sampler.chain_steps_per_s": _ratio(steps_total, incl["sampler.mcmc"]),
        "sampler.ess_per_kstep": _ratio(ess, steps_after_burn_in / 1000.0),
        "sampler.csv_write_s": incl["sampler.csv_write"],
        "sampler.csv_bytes": int(extra["sampler.csv_write"][0]),
        "sampler.matrix_s": incl["sampler.matrix"],
        "sampler.kstats_s": incl["sampler.kstats"],
        "distribution.density_comparison_s": incl["distribution.density_comparison"],
        "distribution.write_density_csv_s": incl["distribution.write_density_csv"],
        "cli.self_s": self_s["cli.main"],
    }

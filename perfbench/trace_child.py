"""Run one bureshall CLI command under the benchmark's tracer.

    python perfbench/trace_child.py SPANS_JSON CLI_ARG...

Imports `bureshall.cli`, wraps the public functions of each layer through
attributes on their modules (and on `bureshall.cli`, which imports them by
name), then calls `bureshall.cli.main`.  Each call records a span
(name, start, end, parent index, extra) in memory; the spans are written to
SPANS_JSON when the command returns.  Nothing in the program is changed on
disk.
"""

from __future__ import annotations

import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._deferred: list = []

    def wrap(self, name, fn, extract=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, None]
            if extract is not None:
                spans[idx][4] = extract(args, result)
            return result

        return traced

    def patch(self, name, owners, attr, extract=None):
        """Replace `attr` on every owner that holds the same original object."""
        original = getattr(owners[0], attr)
        traced = self.wrap(name, original, extract)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                setattr(owner, attr, traced)

    def defer(self, fn) -> list:
        """An extra filled in by `fn` after the command, outside every span."""
        extra: list = []
        self._deferred.append((extra, fn))
        return extra

    def finish(self):
        for extra, fn in self._deferred:
            extra.extend(fn())


def install(tracer: Tracer) -> None:
    import bureshall.cli as cli
    from bureshall import cumulants, distribution, identities, polygamma, quadrature, ring, sampler

    poly = ring.ConstPoly
    for attr, name in (("__mul__", "ring.mul"), ("__rmul__", "ring.mul"), ("__add__", "ring.add"),
                       ("__radd__", "ring.add"), ("evalf", "ring.evalf")):
        setattr(poly, attr, tracer.wrap(name, getattr(poly, attr)))

    seen: set = set()

    def psi_repeat(args, result):
        key = (args[0], polygamma.HalfInteger.of(args[1]).twice)
        repeat = key in seen
        seen.add(key)
        return [int(repeat)]

    tracer.patch("polygamma.psi_exact", [polygamma, cumulants, identities], "psi_exact", psi_repeat)

    for attr in ("kappa1", "kappa2", "kappa3"):
        tracer.patch("cumulants.kappa", [cumulants, cli, distribution], attr)
    tracer.patch("cumulants.skewness", [cumulants], "skewness")
    tracer.patch("cumulants.cumulant_set", [cumulants, cli], "cumulant_set")

    tracer.patch("identities.residual", [identities, cli], "identity_residual")
    tracer.patch("identities.telescope", [identities, cli], "resummation_telescope_check")
    tracer.patch("identities.degeneracy", [identities, cli], "degenerate_anomaly_check",
                 lambda args, result: [len(result)])

    def quad_extra(results):
        return [sum(r.evaluations for r in results), sum(bool(r.converged) for r in results),
                len(results)]

    tracer.patch("quadrature.normalization", [quadrature, cli], "normalization_check",
                 lambda args, result: quad_extra([result]))
    tracer.patch("quadrature.oracle_cumulants", [quadrature, cli], "oracle_cumulants",
                 lambda args, result: quad_extra(result))

    def mcmc_extra(args, batch):
        config = batch.provenance.config
        kept = -(-config.samples // config.chain_count)
        total = config.chain_count * (config.burn_in + config.thinning * kept)
        after_burn_in = config.chain_count * config.thinning * kept

        def measure():
            from ess import bulk_ess, chains_from_columns

            chains = chains_from_columns(batch.chain_index, batch.step_index, batch.entropies)
            return [total, after_burn_in, bulk_ess(chains)]

        return tracer.defer(measure)

    tracer.patch("sampler.mcmc", [sampler, cli], "mcmc_chain", mcmc_extra)
    tracer.patch("sampler.matrix", [sampler, cli], "sample_matrix_model_batch")
    tracer.patch("sampler.kstats", [sampler, cli], "k_statistics")
    tracer.patch("sampler.csv_write", [sampler, cli], "write_sample_csv",
                 lambda args, result: [os.path.getsize(args[1])])
    tracer.patch("distribution.density_comparison", [distribution, cli], "density_comparison")
    tracer.patch("distribution.write_density_csv", [distribution, cli], "write_density_csv")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import bureshall.cli as cli

    tracer = Tracer()
    install(tracer)
    sys.argv = ["bureshall", *argv]
    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.finish()
        with open(spans_path, "w") as fh:
            json.dump({"argv": argv, "spans": tracer.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())

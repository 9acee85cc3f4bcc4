"""Command-line front end.

Subcommands:

* ``cumulants``  closed-form kappa_1..kappa_3 and skewness for one (m, n);
* ``simulate``   draw spectra (MCMC or matrix backend), write a sample CSV
                 plus a run manifest, print k-statistics next to the formulas;
* ``verify``     run a verification target (identities | oracles | figures)
                 and write a JSON report; ``identities`` checks its cases
                 on every usable CPU, in the same report order.

Exit codes: 0 success, 1 a verification check failed, 2 usage error.  Every
randomized command takes an explicit seed, and every file-producing run
writes a manifest listing the SHA-256 of each emitted file, from a process
forked at the start of the run (see `manifest`).  Output paths
without a directory component land in $BURESHALL_OUT_DIR (default: cwd).  An
output path that names a directory or cannot be written, or two outputs that
are one file, is a usage error, found before any sampling or verification
starts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .cumulants import EnsembleDims, cumulant_set, kappa1, kappa2, kappa3

OUT_DIR_ENV = "BURESHALL_OUT_DIR"


def _resolve_out(path: str) -> str:
    if os.path.dirname(path):
        return path
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), path)


_FIGURE_CSV = {1: "figure1_density.csv", 2: "figure2_kappa3.csv"}


def _output_paths(args) -> list[str]:
    """The resolved paths a simulate or verify run writes, the one its
    manifest is named after first."""
    if args.command == "simulate":
        return [_resolve_out(args.out)]
    name = f"figure{args.fig}" if args.target == "figures" else args.target
    paths = [_resolve_out(args.out or f"{name}_report.json")]
    if args.target == "figures":
        paths.append(_resolve_out(_FIGURE_CSV[args.fig]))
    return paths


def _unwritable(path: str) -> str | None:
    """Why `write_atomic` could not create `path`, or None if it can.  Probes
    the nearest existing ancestor of its directory and creates nothing: the
    write creates the missing directories."""
    import tempfile  # imported here, like fileio, so that `cumulants` skips it

    if path.endswith(os.sep) or os.path.isdir(path):
        return f"output {path} names a directory"
    directory = os.path.dirname(os.path.abspath(path))
    ancestor = directory
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    try:
        tempfile.TemporaryFile(dir=ancestor).close()
    except OSError as exc:
        return f"cannot write output {path} in {directory}: {exc.strerror}"
    return None


# ---------------------------------------------------------------------------
# cumulants
# ---------------------------------------------------------------------------

def _cmd_cumulants(args) -> int:
    dims = args.dims
    cs = cumulant_set(dims)
    values = {"kappa1": cs.kappa1_f, "kappa2": cs.kappa2_f, "kappa3": cs.kappa3_f,
              "skewness": cs.skewness}
    exact = {}
    if args.exact:
        exact = {f"kappa{i}": k(dims).to_text() for i, k in enumerate((kappa1, kappa2, kappa3), 1)}
    if args.format == "json":
        import json  # here, like hashlib in _sha256, so that text output skips it

        payload = {"m": args.m, "n": args.n, **values}
        if exact:
            payload["exact"] = exact
        print(json.dumps(payload, indent=2))
    else:
        for name, text in exact.items():
            print(f"{name} = {text}")
        for name, value in values.items():
            print(f"{name} = {value!r}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args, write_manifest) -> int:
    """Draw the samples, stream them to the CSV, hand the kernel's diagnostics
    to `write_manifest`, which returns the manifest's path, then print."""
    # imported here (and in the figure targets) so that only sampling loads numpy
    from .sampler import (_ACCEPT_MIN, _MIN_BATCHES, ChainConfig, k_statistics, mcmc_chain,
                          sample_matrix_model_batch, write_sample_csv)

    dims = args.dims
    if args.backend == "matrix":
        batch = sample_matrix_model_batch(args.m, args.samples, args.seed)
    else:
        given = {"burn_in": args.burn_in, "thinning": args.thinning, "chain_count": args.chains}
        config = ChainConfig(samples=args.samples, seed=args.seed,
                             **{key: value for key, value in given.items() if value is not None})
        batch = mcmc_chain(dims, config)
    out = args.outputs[0]
    write_sample_csv(batch, out)
    manifest = write_manifest(batch.kernel)

    st = k_statistics(batch.entropies, batch.chain_index)
    cs = cumulant_set(dims)
    print(f"wrote {out} ({len(batch)} samples, backend={args.backend})")
    print(f"manifest {manifest}")
    if batch.kernel:
        print(f"kernel: step size {batch.kernel['step_size']:.6g}, "
              f"acceptance after burn-in {batch.kernel['acceptance']:.4f}")
        if batch.kernel["acceptance"] < _ACCEPT_MIN / 2:
            # burn-in ended before the step size could follow the target
            print(f"warning: acceptance after burn-in {batch.kernel['acceptance']:.4f} is below "
                  f"{_ACCEPT_MIN / 2}, so the chains may not have mixed; a longer --burn-in "
                  "lets the step size settle", file=sys.stderr)
    for order, k, se, kappa in zip((1, 2, 3), st[:3], st[3:],
                                   (cs.kappa1_f, cs.kappa2_f, cs.kappa3_f)):
        se_text = "n/a" if math.isnan(se) else f"{se:.6g}"
        z_text = f"{(k - kappa) / se:+.2f}" if se > 0 else "n/a"  # also at a NaN SE
        print(f"k{order} = {k:.6g} +- {se_text}   kappa{order} = {kappa:.6g}   z = {z_text}")
    if len(batch) < 3 * _MIN_BATCHES:
        print(f"standard errors need at least {3 * _MIN_BATCHES} samples "
              f"({_MIN_BATCHES} batches of 3), got {len(batch)}")
    return 0


# ---------------------------------------------------------------------------
# verify targets
# ---------------------------------------------------------------------------

def verify_identities_report(max_m: int = 8) -> dict:
    """The identities report: one entry per case of `identity_checks`, in its
    order, whichever process checked the case."""
    # imported here so that only this target loads the identity catalog
    from .identities import identity_checks

    cases = []
    for identity_id, params, ok, text in identity_checks(max_m):
        entry = {"identity_id": identity_id, "params": params, "residual_is_zero": ok}
        if not ok:
            entry["residual_text_if_nonzero"] = text
        cases.append(entry)
    failures = sum(not c["residual_is_zero"] for c in cases)
    return {
        "target": "identities",
        "max_m": max_m,
        "n_cases": len(cases),
        "n_failures": failures,
        "all_passed": failures == 0,
        "cases": cases,
    }


# n values and kappa tolerance by m; the mass is held to the quadrature's own
# moment tolerance
_ORACLE_GRID = {2: ((2, 3, 5, 10), 1e-8), 3: ((3, 4, 6), 1e-6)}


def _oracle_check(m: int, n: int, kind: str, res, target: float, tol: float) -> dict:
    """A case passes when its quadrature converged and lies within both the
    tolerance and its own error estimate of the target."""
    abs_diff = abs(res.value - target)
    return {
        "m": m,
        "n": n,
        "kind": kind,
        "value": res.value,
        "target": target,
        "abs_diff": abs_diff,
        "tolerance": tol,
        "error_estimate": res.error_estimate,
        "evaluations": res.evaluations,
        "converged": bool(res.converged),
        "passed": abs_diff <= min(tol, res.error_estimate) and bool(res.converged),
    }


def verify_oracles_report() -> dict:
    # imported here so that no other command compiles or holds this module,
    # which costs time and memory in runs without cached bytecode
    from .quadrature import _TOL, normalization_check, oracle_cumulants

    # normalization_check and oracle_cumulants read the same pass, which
    # integrates the mass and the first three moments of S together
    checks, passes, evaluations = [], 0, 0
    for m, (ns, tol_k) in _ORACLE_GRID.items():
        for n in ns:
            dims = EnsembleDims(m, n)
            mass = normalization_check(dims)
            passes += 1
            evaluations += mass.evaluations
            checks.append(_oracle_check(m, n, "normalization", mass, 1.0, _TOL[m]))
            cs = cumulant_set(dims)
            exact = (cs.kappa1_f, cs.kappa2_f, cs.kappa3_f)
            for order, (res, ref) in enumerate(zip(oracle_cumulants(dims), exact), start=1):
                checks.append(_oracle_check(m, n, f"kappa{order}", res, ref, tol_k))
    failures = sum(not c["passed"] for c in checks)
    return {
        "target": "oracles",
        "n_cases": len(checks),
        "n_failures": failures,
        "all_passed": failures == 0,
        "passes": passes,
        "evaluations": evaluations,
        "cases": checks,
    }


def verify_figure1_report(samples: int, seed: int, csv_path: str) -> dict:
    from .distribution import density_comparison, write_density_csv
    from .sampler import ChainConfig, mcmc_chain

    dims = EnsembleDims(4, 6)
    config = ChainConfig(samples=samples, burn_in=2000, thinning=10, chain_count=100, seed=seed)
    batch = mcmc_chain(dims, config)
    comparison = density_comparison(batch.entropies, dims)
    write_density_csv(comparison.grid, csv_path)
    passed = comparison.l1_edgeworth < comparison.l1_gaussian
    return {
        "target": "figure1",
        "m": 4,
        "n": 6,
        "samples": samples,
        "seed": seed,
        "l1_gaussian": comparison.l1_gaussian,
        "l1_edgeworth": comparison.l1_edgeworth,
        "sup_gaussian": comparison.sup_gaussian,
        "sup_edgeworth": comparison.sup_edgeworth,
        "all_passed": passed,
    }


_FIG2_SPOTS = ((3, 3), (4, 8), (5, 15))


def _fig2_seeds(seed: int) -> list[int]:
    """The seeds of figure 2's spot checks, one per entry of _FIG2_SPOTS."""
    return [seed + i for i in range(len(_FIG2_SPOTS))]


def verify_figure2_report(samples: int, seed: int, csv_path: str) -> dict:
    from .fileio import _write_csv
    from .sampler import ChainConfig, k_statistics, mcmc_chain

    # kappa3 is negative over the plotted range (confirmed by quadrature at
    # m = 3 and by Monte Carlo beyond); a log-linear plot shows |kappa3|,
    # which decays in m from m = 4 on in every family.
    rows = []
    monotone_ok = True
    for ratio in (1, 2, 3):
        values = []
        for m in range(3, 13):
            dims = EnsembleDims(m, ratio * m)
            values.append(cumulant_set(dims).kappa3_f)
            rows.append({"m": m, "n": ratio * m, "kappa3": values[-1]})
        mags = [abs(v) for v in values]
        if any(v >= 0 for v in values) or any(
            mags[i + 1] >= mags[i] for i in range(1, len(mags) - 1)
        ):
            monotone_ok = False
    curve = {(r["m"], r["n"]): r["kappa3"] for r in rows}
    spot_checks = []
    for (m, n), spot_seed in zip(_FIG2_SPOTS, _fig2_seeds(seed)):
        dims = EnsembleDims(m, n)
        config = ChainConfig(
            samples=samples, burn_in=2000, thinning=20, chain_count=100, seed=spot_seed
        )
        batch = mcmc_chain(dims, config)
        st = k_statistics(batch.entropies, batch.chain_index)
        ref = curve[m, n]
        z = (st.k3 - ref) / st.se3
        spot_checks.append(
            {"m": m, "n": n, "k3": st.k3, "se3": st.se3, "kappa3": ref, "z": z,
             "passed": abs(z) <= 4.0}
        )
    columns = [[r[key] for r in rows] for key in ("m", "n", "kappa3")]
    _write_csv(csv_path, "m,n,kappa3", [columns])
    passed = monotone_ok and all(c["passed"] for c in spot_checks)
    return {
        "target": "figure2",
        "samples": samples,
        "seed": seed,
        "negative_with_decaying_magnitude": monotone_ok,
        "spot_checks": spot_checks,
        "curve": rows,
        "all_passed": passed,
    }


def _cmd_verify(args, write_manifest) -> int:
    """Run the target, write its report as the JSON encoder's chunks, never
    as one string, then hand over to `write_manifest()`, also on a failed check."""
    import json
    from itertools import chain

    from .fileio import write_atomic

    report_path = args.outputs[0]
    if args.target == "identities":
        report = verify_identities_report(max_m=args.max_m)
    elif args.target == "oracles":
        report = verify_oracles_report()
    elif args.fig == 1:
        report = verify_figure1_report(args.samples, args.seed, args.outputs[1])
    else:
        report = verify_figure2_report(args.samples, args.seed, args.outputs[1])

    write_atomic(report_path, chain(json.JSONEncoder(indent=2).iterencode(report), ["\n"]))
    write_manifest()

    if report["all_passed"]:
        print(f"verify {args.target}: PASS ({report_path})")
        return 0
    print(f"verify {args.target}: FAIL ({report_path})")
    return 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value >= high):
            bound = f"in [{low}, {high})" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_SEED = _int_in(0, 2 ** 64)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bureshall",
        description="Entropy cumulants over the Bures-Hall ensemble: exact formulas, "
        "samplers and verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cum = sub.add_parser("cumulants", help="closed-form cumulants and skewness")
    p_cum.add_argument("--m", type=int, required=True)
    p_cum.add_argument("--n", type=int, required=True)
    p_cum.add_argument("--format", choices=("text", "json"), default="text")
    p_cum.add_argument("--exact", action="store_true", help="print canonical polynomial text")
    p_cum.set_defaults(func=_cmd_cumulants)

    p_sim = sub.add_parser("simulate", help="draw spectra and write a sample CSV")
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--samples", type=_int_in(3), required=True)  # k3 needs three values
    p_sim.add_argument("--seed", type=_SEED, required=True)
    p_sim.add_argument("--backend", choices=("mcmc", "matrix"), default="mcmc")
    p_sim.add_argument("--out", default="samples.csv")
    # MCMC only; the defaults are ChainConfig's
    p_sim.add_argument("--burn-in", type=_int_in(0))
    p_sim.add_argument("--thinning", type=_int_in(1))
    p_sim.add_argument("--chains", type=_int_in(1))
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a verification target")
    ver_sub = p_ver.add_subparsers(dest="target", required=True)

    p_ids = ver_sub.add_parser("identities", help="exact summation-identity grid")
    p_ids.add_argument("--max-m", type=_int_in(1), default=8)
    p_ids.add_argument("--out", default=None)
    p_ids.set_defaults(func=_cmd_verify)

    p_orc = ver_sub.add_parser("oracles", help="quadrature vs closed forms (m = 2, 3)")
    p_orc.add_argument("--out", default=None)
    p_orc.set_defaults(func=_cmd_verify)

    p_fig = ver_sub.add_parser("figures", help="distribution comparisons")
    p_fig.add_argument("--fig", type=int, choices=(1, 2), required=True)
    p_fig.add_argument("--samples", type=_int_in(10_000), default=200_000)
    p_fig.add_argument("--seed", type=_SEED, required=True)
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv  # recorded in the run manifest
    if args.command in ("cumulants", "simulate"):
        try:
            args.dims = EnsembleDims(args.m, args.n)
        except ValueError as exc:
            parser.error(str(exc))
    if args.command == "simulate" and args.backend == "matrix":
        if args.m != args.n:
            parser.error("the matrix backend requires n = m")
        if (args.burn_in, args.thinning, args.chains) != (None, None, None):
            parser.error("--burn-in, --thinning and --chains apply to the mcmc backend only")
    if getattr(args, "fig", None) == 2 and _fig2_seeds(args.seed)[-1] >= 2 ** 64:
        parser.error(f"figure 2 uses seeds --seed .. --seed+{len(_FIG2_SPOTS) - 1}, "
                     "which must stay below 2^64")
    if args.command == "cumulants":
        return args.func(args)
    # fail before sampling rather than after it
    args.outputs = _output_paths(args)
    if len(set(map(os.path.realpath, args.outputs))) < len(args.outputs):
        parser.error(f"outputs {' and '.join(args.outputs)} are one file")
    for problem in filter(None, map(_unwritable, args.outputs)):
        parser.error(problem)
    # recorded in the run manifest, with args.argv and args.outputs
    args.seeds = [] if getattr(args, "seed", None) is None else [args.seed]
    if getattr(args, "fig", None) == 2:
        args.seeds = _fig2_seeds(args.seed)
    from .manifest import run_with_manifest  # so that `cumulants` does not compile it

    return run_with_manifest(args)


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for the benchmark's CLI commands.

Each check returns a list of problems; an empty list means the output is
correct.  A command with a non-zero exit or any problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from ess import chains_from_columns

REL_TOL = 1e-13
SUM_TOL = 1e-12
Z_LIMIT = 5.0
# the matrix backend draws independent spectra in one stream; this many
# consecutive blocks stand in for chains when the SE of the mean is taken
IID_BLOCKS = 64


def _close(got: float, want: float, what: str) -> list[str]:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        return [f"{what} = {got!r}, golden {want!r}"]
    return []


def _compare_floats(values: dict, golden: dict, keys=("kappa1", "kappa2", "kappa3", "skewness")) -> list[str]:
    problems = []
    for key in keys:
        if key not in values:
            problems.append(f"missing {key}")
        else:
            problems += _close(float(values[key]), golden[key], key)
    return problems


def check_cumulants_json(stdout: str, golden: dict) -> list[str]:
    """`cumulants --format json`: kappa1..3 and skewness match the golden values."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    return _compare_floats(payload, golden)


def check_cumulants_exact_text(stdout: str, golden: dict, golden_text: dict) -> list[str]:
    """`cumulants --exact` (text format): every polynomial text round-trips
    through ConstPoly.from_text, equals the golden text and evaluates to the
    printed float; the printed floats match the golden values."""
    from bureshall.ring import ConstPoly  # src/ is on sys.path only once run.py has checked it

    texts, floats = {}, {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        # each kappa is printed twice: exact text first, then its float
        if key in texts or key == "skewness":
            floats[key] = value
        else:
            texts[key] = value
    try:
        floats = {k: float(v) for k, v in floats.items()}
    except ValueError as exc:
        return [f"unparsable float: {exc}"]
    problems = _compare_floats(floats, golden)
    for key in ("kappa1", "kappa2", "kappa3"):
        text = texts.get(key)
        if text is None:
            problems.append(f"missing exact text for {key}")
            continue
        if text != golden_text[key]:
            problems.append(f"exact {key} differs from golden text")
        try:
            poly = ConstPoly.from_text(text)
        except (ValueError, ZeroDivisionError) as exc:
            problems.append(f"exact {key} does not parse: {exc}")
            continue
        if poly.to_text() != text:
            problems.append(f"exact {key} does not round-trip")
        if key in floats:
            problems += _close(float(poly), floats[key], f"value of exact {key}")
    return problems


def check_manifest(manifest_path: str) -> list[str]:
    """Every output listed in a run manifest has the recorded SHA-256 and size."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"manifest unreadable: {exc}"]
    outputs = manifest.get("outputs") or []
    if not outputs:
        return ["manifest lists no outputs"]
    problems = []
    for entry in outputs:
        path = entry["path"]
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            problems.append(f"output unreadable: {exc}")
            continue
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"sha256 mismatch for {os.path.basename(path)}")
        if len(data) != entry["bytes"]:
            problems.append(f"size mismatch for {os.path.basename(path)}")
    return problems


def check_verify_report(report_path: str, n_cases: int | None) -> list[str]:
    """A verify report passed, over as many cases as the golden count
    (when the report counts cases)."""
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"report unreadable: {exc}"]
    problems = []
    if report.get("all_passed") is not True:
        problems.append("report does not show all_passed")
    if n_cases is not None and report.get("n_cases") != n_cases:
        problems.append(f"n_cases = {report.get('n_cases')}, golden {n_cases}")
    return problems


def load_csv(path: str) -> np.ndarray:
    """A headed, comma-separated numeric file as a 2-D array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def chain_aware_se(data: np.ndarray) -> float:
    """SE of the mean of S from the dispersion of the per-chain means."""
    chains = chains_from_columns(data[:, 0], data[:, 1], data[:, 3])
    if chains.shape[0] < 2:
        s = data[:, 3]
        blocks = s[: len(s) // IID_BLOCKS * IID_BLOCKS].reshape(IID_BLOCKS, -1)
        means = blocks.mean(axis=1)
    else:
        means = chains.mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(len(means)))


def check_samples(data: np.ndarray, m: int, samples: int, kappa1: float) -> list[str]:
    """A `simulate` CSV: row and column counts, every lambda row summing to 1,
    and k1 of S within Z_LIMIT chain-aware SEs of kappa1."""
    problems = []
    if data.shape != (samples, 4 + m):
        return [f"shape {data.shape}, expected {(samples, 4 + m)}"]
    drift = float(np.max(np.abs(data[:, 4:].sum(axis=1) - 1.0)))
    if not drift <= SUM_TOL:
        problems.append(f"lambda rows sum to 1 only within {drift:.3g}")
    se = chain_aware_se(data)
    z = (float(data[:, 3].mean()) - kappa1) / se
    if not abs(z) <= Z_LIMIT:
        problems.append(f"k1 is {z:.2f} chain-aware SEs from kappa1")
    return problems


def check_density_csv(data: np.ndarray, rows: int) -> list[str]:
    """The figure-1 density CSV: one row per grid point, four columns."""
    if data.shape != (rows, 4):
        return [f"shape {data.shape}, expected {(rows, 4)}"]
    if not np.all(np.isfinite(data)):
        return ["non-finite density values"]
    return []

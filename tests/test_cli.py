"""CLI tests: exit-code contract, output formats, manifests, determinism,
and JSON-schema validity of machine-readable reports."""

import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from datetime import datetime, timezone

import jsonschema
import pytest

import bureshall
from bureshall import cli
from bureshall.cli import _oracle_check, main
from bureshall.quadrature import QuadratureResult

CUMULANTS_SCHEMA = {
    "type": "object",
    "required": ["m", "n", "kappa1", "kappa2", "kappa3", "skewness"],
    "properties": {
        "m": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "kappa1": {"type": "number"},
        "kappa2": {"type": "number"},
        "kappa3": {"type": "number"},
        "skewness": {"type": ["number", "null"]},
        "exact": {
            "type": "object",
            "required": ["kappa1", "kappa2", "kappa3"],
            "additionalProperties": {"type": "string"},
        },
    },
    "additionalProperties": False,
}

REPORT_CASE_SCHEMA = {
    "type": "object",
    "required": ["identity_id", "params", "residual_is_zero"],
    "properties": {
        "identity_id": {"type": "string"},
        "params": {"type": "object"},
        "residual_is_zero": {"type": "boolean"},
        "residual_text_if_nonzero": {"type": "string"},
    },
    "additionalProperties": False,
}

IDENTITIES_REPORT_SCHEMA = {
    "type": "object",
    "required": ["target", "max_m", "n_cases", "n_failures", "all_passed", "cases"],
    "properties": {
        "target": {"const": "identities"},
        "max_m": {"type": "integer"},
        "n_cases": {"type": "integer"},
        "n_failures": {"type": "integer"},
        "all_passed": {"type": "boolean"},
        "cases": {"type": "array", "items": REPORT_CASE_SCHEMA},
    },
}

ORACLES_REPORT_SCHEMA = {
    "type": "object",
    "required": ["target", "n_cases", "n_failures", "all_passed", "passes", "evaluations",
                 "cases"],
    "properties": {
        "target": {"const": "oracles"},
        "passes": {"type": "integer", "minimum": 1},
        "evaluations": {"type": "integer", "minimum": 1},
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["m", "n", "kind", "value", "target", "abs_diff",
                             "tolerance", "converged", "passed"],
                "properties": {"converged": {"type": "boolean"}},
            },
        },
    },
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["command", "argv", "seeds", "version", "timestamp", "outputs"],
    "properties": {
        "command": {"type": "string"},
        "argv": {"type": "array", "items": {"type": "string"}},
        "seeds": {"type": "array", "items": {"type": "integer"}},
        "version": {"type": "string"},
        "timestamp": {"type": "string"},
        "outputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "sha256", "bytes"],
            },
        },
        "kernel": {
            "type": "object",
            "required": ["step_size", "acceptance"],
            "properties": {
                "step_size": {"type": "number", "exclusiveMinimum": 0},
                "acceptance": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
    },
}


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("BURESHALL_OUT_DIR", str(tmp_path))
    return tmp_path


class TestCumulantsCommand:
    def test_exact_text(self, capsys):
        assert main(["cumulants", "--m", "2", "--n", "2", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "kappa3 = 75/8*z3 - 33/160*z2 - 295/27" in out
        assert "kappa1 = 2*l2 - 7/6" in out

    def test_m1_all_zero(self, capsys):
        assert main(["cumulants", "--m", "1", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "kappa3 = 0.0" in out
        assert "skewness = None" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exact_past_int_digit_limit(self, capsys, fmt):
        # from (48, 96) on, exact coefficients outgrow Python's 4300-digit
        # int/str limit; the limit is lifted only while the text is written
        limit = sys.get_int_max_str_digits()
        assert main(["cumulants", "--m", "48", "--n", "96", "--exact", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert max(map(len, re.findall(r"\d+", out))) > limit
        assert sys.get_int_max_str_digits() == limit

    def test_json_schema(self, capsys):
        assert main(["cumulants", "--m", "3", "--n", "4", "--format", "json",
                     "--exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, CUMULANTS_SCHEMA)

    def test_m_greater_than_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cumulants", "--m", "5", "--n", "3"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cumulants", "--m", "2", "--n", "2", "--frobnicate"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_writes_csv_and_manifest(self, outdir, capsys):
        args = ["simulate", "--m", "2", "--n", "2", "--samples", "2000",
                "--seed", "9", "--out", "s.csv", "--burn-in", "300",
                "--thinning", "3", "--chains", "10"]
        started = datetime.now(timezone.utc)
        assert main(args) == 0
        ended = datetime.now(timezone.utc)
        csv_path = outdir / "s.csv"
        manifest_path = outdir / "s.csv.manifest.json"
        assert csv_path.exists() and manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        assert manifest["seeds"] == [9]
        # a UTC time within the run, always with six fraction digits
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00",
                            manifest["timestamp"])
        stamp = datetime.fromisoformat(manifest["timestamp"])
        assert stamp.utcoffset().total_seconds() == 0
        assert started <= stamp <= ended
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert manifest["outputs"][0]["sha256"] == digest
        out = capsys.readouterr().out
        assert "kappa1" in out and "k1" in out
        # the kernel's frozen step and its acceptance after burn-in, as printed
        kernel = manifest["kernel"]
        assert (f"kernel: step size {kernel['step_size']:.6g}, "
                f"acceptance after burn-in {kernel['acceptance']:.4f}") in out

        # deterministic rerun: identical CSV digest and kernel diagnostics
        assert main(args) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest
        assert json.loads(manifest_path.read_text())["kernel"] == kernel

    def test_matrix_backend_requires_square(self, outdir):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--m", "2", "--n", "3", "--backend", "matrix",
                  "--samples", "10", "--seed", "1"])
        assert exc.value.code == 2

    def test_matrix_backend_runs(self, outdir, capsys):
        assert main(["simulate", "--m", "2", "--n", "2", "--backend", "matrix",
                     "--samples", "5000", "--seed", "4", "--out", "mat.csv"]) == 0
        assert (outdir / "mat.csv").exists()
        # no Metropolis kernel, so no kernel diagnostics
        manifest = json.loads((outdir / "mat.csv.manifest.json").read_text())
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        assert "kernel" not in manifest
        assert "kernel:" not in capsys.readouterr().out

    def test_pure_spectrum_entropy_is_positive_zero(self, outdir, capsys):
        # at m = 1 every spectrum is pure, so S is exactly 0 and reads 0.0
        assert main(["simulate", "--m", "1", "--n", "3", "--samples", "3",
                     "--seed", "1", "--out", "m1.csv"]) == 0
        text = (outdir / "m1.csv").read_text()
        assert "-0.0" not in text
        header, *rows = text.splitlines()
        column = header.split(",").index("S")
        assert [row.split(",")[column] for row in rows] == ["0.0"] * 3

    def test_prints_each_cumulant_with_its_z(self, outdir, capsys):
        # at (3, 1000) kappa2 and kappa3 are about 4e-7 and -3e-10, which six
        # and seven fixed decimals printed as 0.000000 and -0.0000000
        import numpy as np
        from bureshall.cumulants import EnsembleDims, cumulant_set
        from bureshall.sampler import k_statistics

        assert main(["simulate", "--m", "3", "--n", "1000", "--samples", "2000", "--seed", "5",
                     "--burn-in", "3000", "--out", "s.csv"]) == 0
        out = capsys.readouterr().out
        data = np.loadtxt(outdir / "s.csv", delimiter=",", skiprows=1)
        st = k_statistics(data[:, 3], int(data[:, 0].max()) + 1)  # the chain column's count
        cs = cumulant_set(EnsembleDims(3, 1000))
        for order, k, se, kappa in zip((1, 2, 3), st[:3], st[3:],
                                       (cs.kappa1_f, cs.kappa2_f, cs.kappa3_f)):
            assert (f"k{order} = {k:.6g} +- {se:.6g}   kappa{order} = {kappa:.6g}   "
                    f"z = {(k - kappa) / se:+.2f}\n") in out
        assert "0.000000" not in out

    @pytest.mark.parametrize("m, n, warns", [(3, 10 ** 13, True), (4, 6, False), (1, 3, False)],
                             ids=["stalled", "mixed", "m1"])
    def test_stalled_chain_warns(self, outdir, capsys, m, n, warns):
        # at (3, 10^13) the default burn-in ends before the step size shrinks
        # to the target's width, and acceptance after burn-in reads 0.015;
        # at (4,6) it reads 0.37 and at m = 1, where the move is empty, 1.0
        assert main(["simulate", "--m", str(m), "--n", str(n), "--samples", "2000",
                     "--seed", "5", "--out", "chain.csv"]) == 0
        out, err = capsys.readouterr()
        assert "warning" not in out
        assert err.count("--burn-in") == warns

    @pytest.mark.parametrize("samples", [50, 90])
    def test_standard_errors_need_ninety_samples(self, outdir, capsys, samples):
        # batch-means SEs need 30 batches of 3; below that the SE is n/a
        assert main(["simulate", "--m", "2", "--n", "3", "--samples", str(samples),
                     "--seed", "1", "--out", "few.csv"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        short = samples < 90
        assert out.count("+- n/a") == out.count("z = n/a") == (3 if short else 0)
        assert ("standard errors need at least 90 samples (30 batches of 3), got 50"
                in out) == short


class TestVerifyCommands:
    def test_identities_report(self, outdir, capsys):
        assert main(["verify", "identities", "--max-m", "2"]) == 0
        report_bytes = (outdir / "identities_report.json").read_bytes()
        report = json.loads(report_bytes)
        jsonschema.validate(report, IDENTITIES_REPORT_SCHEMA)
        assert report["all_passed"]
        assert report["n_cases"] == 856
        # the whole report, every case id and parameter set in order, is pinned
        assert hashlib.sha256(report_bytes).hexdigest() == (
            "3d29b884c791ca926d730b7e9a49fb210b320b8d6a9aeec78926daf0e1c4ffda")
        manifest = json.loads(
            (outdir / "identities_report.json.manifest.json").read_text()
        )
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        # the argv main parsed, not the host process's sys.argv
        assert manifest["argv"] == ["verify", "identities", "--max-m", "2"]

    def test_oracles_report(self, outdir, capsys):
        assert main(["verify", "oracles"]) == 0
        report = json.loads((outdir / "oracles_report.json").read_text())
        jsonschema.validate(report, ORACLES_REPORT_SCHEMA)
        assert report["all_passed"]
        assert all(c["converged"] for c in report["cases"])
        # each error estimate bounds the distance to the closed form
        assert all(c["abs_diff"] <= c["error_estimate"] for c in report["cases"])
        kinds = {c["kind"] for c in report["cases"]}
        assert kinds == {"normalization", "kappa1", "kappa2", "kappa3"}
        # one pass per (m, n) yields its mass and all three cumulants
        assert report["n_cases"] == 4 * report["passes"] == 28
        assert report["evaluations"] == sum(
            c["evaluations"] for c in report["cases"] if c["kind"] == "normalization")
        assert report["evaluations"] <= 40_000

    def test_oracles_catch_kappa3_outside_error_estimate(self, outdir, monkeypatch, capsys):
        # a closed-form kappa3 at (3,4) moved by 1e-10, well inside the 1e-6
        # tolerance but past the quadrature's own error estimate, fails
        offset = 1e-10
        assert main(["verify", "oracles"]) == 0
        report = json.loads((outdir / "oracles_report.json").read_text())
        case, = (c for c in report["cases"] if (c["m"], c["n"], c["kind"]) == (3, 4, "kappa3"))
        assert case["abs_diff"] + case["error_estimate"] < offset < case["tolerance"]

        closed_forms = cli.cumulant_set

        def moved(dims):
            cs = closed_forms(dims)
            return cs._replace(kappa3_f=cs.kappa3_f + offset) if dims == (3, 4) else cs

        monkeypatch.setattr(cli, "cumulant_set", moved)
        assert main(["verify", "oracles"]) == 1
        report = json.loads((outdir / "oracles_report.json").read_text())
        assert [(c["m"], c["n"], c["kind"]) for c in report["cases"] if not c["passed"]] == [
            (3, 4, "kappa3")]

    def test_figure1_small_run(self, outdir, capsys):
        assert main(["verify", "figures", "--fig", "1", "--samples", "20000",
                     "--seed", "7"]) == 0
        report = json.loads((outdir / "figure1_report.json").read_text())
        assert report["l1_edgeworth"] < report["l1_gaussian"]
        assert (outdir / "figure1_density.csv").exists()

    def test_figure2_small_run(self, outdir, capsys):
        assert main(["verify", "figures", "--fig", "2", "--samples", "20000",
                     "--seed", "11"]) == 0
        report = json.loads((outdir / "figure2_report.json").read_text())
        assert report["negative_with_decaying_magnitude"]
        assert all(c["passed"] for c in report["spot_checks"])
        csv_lines = (outdir / "figure2_kappa3.csv").read_text().splitlines()
        assert csv_lines[0] == "m,n,kappa3"
        assert len(csv_lines) == 31  # header + 10 m-values x 3 families
        manifest = json.loads((outdir / "figure2_report.json.manifest.json").read_text())
        jsonschema.validate(manifest, MANIFEST_SCHEMA)
        assert manifest["seeds"] == [11, 12, 13]  # one per spot check

    def test_unconverged_oracle_fails(self):
        # a value within tolerance does not pass when its quadrature did not converge
        res = QuadratureResult(1.0, 1e-3, 1, converged=False)
        check = _oracle_check(2, 2, "normalization", res, 1.0, 1e-10)
        assert check["abs_diff"] == 0.0
        assert not check["converged"]
        assert not check["passed"]

    def test_oracle_outside_error_estimate_fails(self):
        # a converged value within tolerance does not pass when it misses the
        # target by more than the quadrature's own error estimate
        res = QuadratureResult(1.0 + 1e-7, 1e-9, 1, converged=True)
        check = _oracle_check(3, 3, "kappa3", res, 1.0, 1e-6)
        assert res.error_estimate < check["abs_diff"] < check["tolerance"]
        assert not check["passed"]

    def test_verify_requires_target(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_figures_requires_seed(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "figures", "--fig", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--m", "2", "--n", "2", "--samples", "0", "--seed", "1"],
    # k-statistics need three values
    ["simulate", "--m", "2", "--n", "2", "--samples", "2", "--seed", "1"],
    ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "-1"],
    ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "1", "--chains", "0"],
    ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "1", "--thinning", "0"],
    ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "1", "--burn-in", "-1"],
    ["verify", "figures", "--fig", "1", "--samples", "5000", "--seed", "1"],
    # figure 2 seeds its three spot checks with seed, seed + 1, seed + 2
    ["verify", "figures", "--fig", "2", "--seed", str(2 ** 64 - 2)],
    # max-m 0 would check no catalog identity at all
    ["verify", "identities", "--max-m", "0"],
    ["cumulants", "--m", "0", "--n", "2"],
    ["simulate", "--m", "0", "--n", "2", "--samples", "100", "--seed", "1"],
    # the matrix backend has no chains to configure
    ["simulate", "--m", "3", "--n", "3", "--samples", "100", "--seed", "1", "--backend", "matrix",
     "--chains", "5", "--burn-in", "7"],
    ["simulate", "--m", "3", "--n", "3", "--samples", "100", "--seed", "1", "--backend", "matrix",
     "--thinning", "10"],
])
def test_out_of_range_input_is_usage_error(outdir, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("make, error", [
    (lambda manifest: manifest.mkdir(), "s.csv.manifest.json names a directory"),
    (lambda manifest: manifest.symlink_to(manifest.parent / "s.csv"), "are one file"),
], ids=["directory", "symlink-to-output"])
def test_unwritable_manifest_is_usage_error(outdir, capsys, make, error):
    # the manifest path is checked with the outputs: the command exits 2
    # before it samples, and writes nothing
    manifest = outdir / "s.csv.manifest.json"
    make(manifest)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--m", "3", "--n", "4", "--samples", "300", "--seed", "1",
              "--out", str(outdir / "s.csv")])
    assert exc.value.code == 2
    assert error in capsys.readouterr().err
    assert [p.name for p in outdir.iterdir()] == ["s.csv.manifest.json"]
    assert manifest.is_symlink() or list(manifest.iterdir()) == []


_SIMULATE = ["simulate", "--m", "2", "--n", "2", "--samples", "100", "--seed", "1", "--out"]


def _never_run(args):
    raise AssertionError("the command started")


@pytest.mark.parametrize("out_dir, argv", [
    pytest.param("work", _SIMULATE + ["/proc/x.csv"], id="simulate-unwritable-dir",
                 marks=pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                          reason="needs procfs")),
    pytest.param("work", _SIMULATE + ["{tmp}/afile/x.csv"], id="simulate-dir-is-file"),
    pytest.param("work", _SIMULATE + ["./"], id="simulate-cwd"),
    pytest.param("work", ["verify", "identities", "--out", "{tmp}/work"],
                 id="verify-existing-dir"),
    pytest.param("afile", ["verify", "figures", "--fig", "1", "--seed", "1"],
                 id="verify-out-dir-env-is-file"),
    # the report's directories are not made when the figure's CSV is rejected
    pytest.param("afile", ["verify", "figures", "--fig", "1", "--seed", "1",
                           "--out", "newdir/sub/r.json"], id="verify-report-dir-not-made"),
    # the report would overwrite the figure's CSV
    pytest.param("work", ["verify", "figures", "--fig", "1", "--seed", "1",
                          "--out", "figure1_density.csv"], id="verify-report-is-figure-csv"),
    pytest.param("work", ["verify", "figures", "--fig", "2", "--seed", "1",
                          "--out", "./figure2_kappa3.csv"], id="verify-report-is-figure-csv-in-cwd"),
])
def test_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys, out_dir, argv):
    # an output path that names a directory or cannot be written exits 2
    # before the command starts, and writes nothing anywhere
    (tmp_path / "work").mkdir()
    (tmp_path / "afile").write_text("x\n")
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setenv("BURESHALL_OUT_DIR", str(tmp_path / out_dir))
    monkeypatch.setattr(cli, "_cmd_simulate", _never_run)
    monkeypatch.setattr(cli, "_cmd_verify", _never_run)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("bureshall: error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "work"]
    assert list((tmp_path / "work").iterdir()) == []
    assert (tmp_path / "afile").read_text() == "x\n"


def _child_env(tmp_path) -> dict:
    """Environment of a child interpreter that imports this bureshall and
    writes its outputs into tmp_path."""
    src = os.path.dirname(os.path.dirname(bureshall.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, BURESHALL_OUT_DIR=str(tmp_path))


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # no command needs scipy, only the sampling commands need numpy, only
    # `verify identities` needs the identity catalog and text `cumulants`
    # writes no JSON; the other commands skip those import costs
    code = textwrap.dedent("""
        import sys, bureshall.cli as cli
        def loaded(names=("numpy", "scipy", "bureshall.identities", "json")):
            print("loaded", [name for name in names if name in sys.modules])
        loaded()
        assert cli.main(["cumulants", "--m", "4", "--n", "6"]) == 0
        loaded()
        assert cli.main(["verify", "identities", "--max-m", "1"]) == 0
        loaded(("numpy", "scipy"))
        assert cli.main(["verify", "oracles"]) == 0
        loaded(("numpy", "scipy"))
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=60)
    assert [line for line in out.stdout.splitlines() if line.startswith("loaded")] == ["loaded []"] * 4


def test_cli_import_leaves_mpmath_unloaded(tmp_path):
    # the numeric cumulants and the ring's constants come from psi_numeric in
    # the stdlib decimal module and the quadrature is stdlib, so neither a
    # command nor a polynomial's value needs mpmath: the child blocks it, and
    # any import of it would raise
    code = textwrap.dedent("""
        import sys
        sys.modules["mpmath"] = None
        import bureshall.cli as cli
        from bureshall import EnsembleDims, kappa3
        from bureshall.ring import LN2
        dims = ["--m", "4", "--n", "6"]
        for argv in (["cumulants", *dims], ["cumulants", *dims, "--format", "json"],
                     ["cumulants", *dims, "--exact"], ["verify", "identities", "--max-m", "1"],
                     ["verify", "oracles"],
                     ["simulate", "--m", "3", "--n", "4", "--samples", "400", "--seed", "1",
                      "--chains", "8", "--burn-in", "100"]):
            assert cli.main(argv) == 0
            print("ran", argv[0])
        print("value", float(kappa3(EnsembleDims(4, 6))) < 0, 0.69 < (2 * LN2).evalf() / 2 < 0.7)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=60)
    ran = [line for line in out.stdout.splitlines() if line.startswith(("ran", "value"))]
    assert ran == ["ran cumulants"] * 3 + ["ran verify"] * 2 + ["ran simulate", "value True True"]


def test_cli_import_leaves_multiprocessing_unloaded(tmp_path):
    # no command imports multiprocessing: the child sees two usable CPUs, so
    # `verify identities` maps a share in a forked child and a sample CSV of
    # three blocks goes through a forked writer, both started by os.fork
    code = textwrap.dedent("""
        import os, sys, bureshall.cli as cli
        os.sched_getaffinity = lambda pid: {0, 1}
        for argv in (["cumulants", "--m", "4", "--n", "6"], ["verify", "oracles"],
                     ["simulate", "--m", "3", "--n", "4", "--samples", "5000", "--seed", "1",
                      "--chains", "8", "--burn-in", "100"],
                     ["verify", "identities", "--max-m", "1"]):
            assert cli.main(argv) == 0
            print("loaded", "multiprocessing" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("loaded")]
    assert loaded == ["loaded False"] * 4


def _manifests_match_outputs(directory) -> list[str]:
    """The names of the manifests in `directory`, once each output that one
    lists has been found on disk with its SHA-256 and size."""
    names = []
    for path in sorted(directory.glob("*.manifest.json")):
        for out in json.loads(path.read_text())["outputs"]:
            with open(out["path"], "rb") as fh:
                data = fh.read()
            assert [out["sha256"], out["bytes"]] == [hashlib.sha256(data).hexdigest(), len(data)]
        names.append(path.name)
    return names


def test_run_process_leaves_openssl_unloaded(tmp_path):
    # every output is hashed as it is written, and the run's own process
    # writes the manifest: no command forks a process for it, and none reads
    # an output back.  `cumulants` and `verify oracles` fork nothing, `verify
    # identities` one share per CPU past the first, and the CSV commands one
    # writer.  The run's process never loads OpenSSL's _hashlib, nor
    # datetime where numpy, which loads it, is not loaded
    code = textwrap.dedent("""
        import builtins, os, sys, bureshall.cli as cli
        os.sched_getaffinity = lambda pid: {0, 1}
        fork, forks, real_open = os.fork, [], builtins.open
        out_dir = os.environ["BURESHALL_OUT_DIR"]

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        def opening(file, mode="r", *args, **kwargs):
            if (isinstance(file, str) and file.startswith(out_dir)
                    and not set(mode) & set("wxa+")):
                raise AssertionError(f"{file} opened for reading")
            return real_open(file, mode, *args, **kwargs)

        os.fork, builtins.open = counting_fork, opening
        for argv in (["cumulants", "--m", "4", "--n", "6"], ["verify", "oracles"],
                     ["verify", "identities", "--max-m", "1"],
                     ["simulate", "--m", "3", "--n", "4", "--samples", "5000", "--seed", "1",
                      "--chains", "8", "--burn-in", "100"],
                     ["verify", "figures", "--fig", "2", "--samples", "10000", "--seed", "1"]):
            del forks[:]
            assert cli.main(argv) == 0
            print("ran", argv[0], len(forks), [name for name in ("_hashlib", "datetime")
                                               if sys.modules.get(name) is not None])
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=120)
    lines = [line for line in out.stdout.splitlines() if line.startswith("ran")]
    assert lines == ["ran cumulants 0 []", "ran verify 0 []", "ran verify 1 []",
                     "ran simulate 1 ['datetime']", "ran verify 1 ['datetime']"]
    assert _manifests_match_outputs(tmp_path) == [
        "figure2_report.json.manifest.json", "identities_report.json.manifest.json",
        "oracles_report.json.manifest.json", "samples.csv.manifest.json"]


def test_openssl_stays_without_builtin_hashes(tmp_path):
    # where hashlib's builtin algorithms are missing, as in some distribution
    # builds, an import of hashlib without _hashlib logs "code for hash md5
    # was not found" to stderr; the run then keeps OpenSSL, and stays quiet
    code = textwrap.dedent("""
        import sys
        for name in ("_md5", "_sha1", "_sha2", "_sha256", "_sha512"):
            sys.modules[name] = None
        import bureshall.cli as cli
        assert cli.main(["simulate", "--m", "3", "--n", "4", "--samples", "5000", "--seed", "1",
                         "--chains", "8", "--burn-in", "100"]) == 0
        print("openssl", sys.modules.get("_hashlib") is not None)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    assert "openssl True" in out.stdout.splitlines()
    assert _manifests_match_outputs(tmp_path) == ["samples.csv.manifest.json"]


def test_failed_run_leaves_no_manifest_process(outdir, monkeypatch):
    # an error in the run reaches the caller, and leaves no output, no
    # manifest and no process
    from bureshall import quadrature

    def failing(*args, **kwargs):
        raise RuntimeError("quadrature failed")

    monkeypatch.setattr(quadrature, "moment_oracle", failing)
    with pytest.raises(RuntimeError, match="quadrature failed"):
        main(["verify", "oracles"])
    assert list(outdir.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_writer_hash_error_is_raised(outdir, monkeypatch):
    # the forked CSV writer inherits a hash that fails after the header: its
    # error is raised in the run, which leaves no CSV, no manifest, no
    # temporary file and no process
    run, sha256 = os.getpid(), hashlib.sha256

    class Failing:
        def __init__(self):
            self.hash, self.updates = sha256(), 0

        def update(self, data):
            self.updates += 1
            if self.updates > 1 and os.getpid() != run:
                raise OSError(f"cannot hash in process {os.getpid()}")
            self.hash.update(data)

        def hexdigest(self):
            return self.hash.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Failing)
    with pytest.raises(OSError, match=r"cannot hash in process \d+") as exc:
        main(["simulate", "--m", "3", "--n", "4", "--samples", "400", "--seed", "1",
              "--chains", "8", "--burn-in", "100", "--out", "s.csv"])
    assert int(str(exc.value).rsplit(" ", 1)[1]) != run
    assert list(outdir.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_closed_stdout_fails_the_command(tmp_path):
    # a print to a closed stdout raises BrokenPipeError in the run: the
    # command exits with status 1 and the error on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "bureshall.cli", "verify", "identities",
                              "--max-m", "1"], env=_child_env(tmp_path), stdout=write_end,
                             stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert "BrokenPipeError" in run.stderr


def test_manifest_without_fork(outdir, monkeypatch):
    # where os.fork is missing, the run's own process writes every output
    monkeypatch.delattr(os, "fork")
    assert main(["verify", "identities", "--max-m", "1"]) == 0
    manifest = json.loads((outdir / "identities_report.json.manifest.json").read_text())
    report = (outdir / "identities_report.json").read_bytes()
    assert manifest["outputs"][0]["sha256"] == hashlib.sha256(report).hexdigest()
    assert manifest["seeds"] == []


def _running(pgid: int) -> list[int]:
    """The processes of process group `pgid` that have not exited, from /proc."""
    pids = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process ended meanwhile
            continue
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(stat.split("/")[2]))
    return pids


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
                    reason="needs os.fork and the /proc process table")
@pytest.mark.parametrize("count", [1, 2])
def test_killed_simulate_leaves_no_temporary_file(tmp_path, count):
    # a SIGKILLed command runs no cleanup of its own; its forked CSV writer
    # reads the end of the pipe with no end marker, unlinks the temporary
    # file and exits.  The child runs on `count` CPUs; it forks the writer
    # either way
    code = textwrap.dedent(f"""
        import os, sys, bureshall.cli as cli
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{count}])
        sys.exit(cli.main(["simulate", "--m", "4", "--n", "6", "--samples", "2000000",
                           "--seed", "1", "--out", "out.csv"]))
    """)
    proc = subprocess.Popen([sys.executable, "-c", code], env=_child_env(tmp_path),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        # kill it once the writer has written a few blocks
        while not [p for p in tmp_path.glob("out.csv.*.tmp") if p.stat().st_size > 100_000]:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 10
    while list(tmp_path.glob("out.csv*")) or _running(proc.pid):
        assert time.monotonic() < deadline, (list(tmp_path.iterdir()), _running(proc.pid))
        time.sleep(0.05)


def test_cli_leaves_dataclasses_and_ring_unloaded(tmp_path):
    # the records are NamedTuples, so no command loads dataclasses (nor the
    # inspect, ast and dis modules behind it), and only exact arithmetic
    # loads the constant ring; `--exact` shows that the ring guard can fail
    code = textwrap.dedent("""
        import sys, bureshall.cli as cli
        dims = ["--m", "4", "--n", "6"]
        for argv in (["cumulants", *dims], ["cumulants", *dims, "--format", "json"],
                     ["cumulants", *dims, "--exact"], ["verify", "oracles"],
                     ["verify", "identities", "--max-m", "1"],
                     ["simulate", "--m", "3", "--n", "4", "--samples", "400", "--seed", "1",
                      "--chains", "8", "--burn-in", "100"]):
            assert cli.main(argv) == 0
            print("loaded", "dataclasses" in sys.modules, "bureshall.ring" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=120)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("loaded")]
    assert loaded == ["loaded False False"] * 2 + ["loaded False True"] * 4


def test_simulate_peak_memory_does_not_grow_with_samples(tmp_path):
    # the spectra stream to the CSV a block at a time, so 70k more samples at
    # (12,24) add only their entropies (0.5 MiB) and the part of the kernel's
    # 512-step draw buffers that 157 steps of the 10k run leave untouched
    # (2.4 MiB); holding the spectra would add 70000 * 12 floats (6.4 MiB).
    # A small launcher starts the command, since a process's max-RSS starts
    # from that of the process that started it
    code = textwrap.dedent("""
        import os, subprocess, sys
        argv = [sys.executable, "-m", "bureshall.cli", "simulate", "--m", "12", "--n", "24",
                "--seed", "1", "--thinning", "1", "--burn-in", "0", "--samples"]
        for samples in sys.argv[1:]:
            proc = subprocess.Popen(argv + [samples, "--out", f"s{samples}.csv"],
                                    stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            print(usage.ru_maxrss / 1024)
    """)
    out = subprocess.run([sys.executable, "-c", code, "10000", "80000"], env=_child_env(tmp_path),
                         capture_output=True, text=True, check=True, timeout=300)
    small, large = map(float, out.stdout.split())
    assert large - small < 5.0, (small, large)


TRACE_CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "trace_child.py")


@pytest.mark.parametrize("argv, layer_spans, psi_callers", [
    (["cumulants", "--m", "4", "--n", "6", "--exact"],
     {"cumulants.cumulant_set", "cumulants.kappa", "polygamma.psi_exact", "ring.mul",
      "ring.add"}, "cumulants.kappa"),
    (["verify", "identities", "--max-m", "1"],
     {"identities.residual", "identities.degeneracy", "identities.telescope",
      "polygamma.psi_exact"}, "identities.telescope"),
    (["verify", "oracles"], {"quadrature.normalization", "quadrature.oracle_cumulants"}, None),
    (["simulate", "--m", "3", "--n", "4", "--samples", "3000", "--seed", "1", "--chains", "8",
      "--burn-in", "100"],
     {"sampler.mcmc", "sampler.csv_write", "sampler.kstats"}, None),
    (["simulate", "--m", "3", "--n", "3", "--samples", "400", "--seed", "1", "--backend",
      "matrix"],
     {"sampler.matrix", "sampler.csv_write", "sampler.kstats"}, None),
    (["verify", "figures", "--fig", "1", "--samples", "10000", "--seed", "1"],
     {"sampler.mcmc", "distribution.density_comparison", "distribution.write_density_csv"},
     None),
], ids=["exact", "identities", "oracles", "mcmc", "matrix", "figure1"])
def test_benchmark_tracer_hooks(tmp_path, argv, layer_spans, psi_callers):
    # the benchmark's tracer wraps the layers' entry points by name; a renamed
    # or removed entry point fails its install step, a bypassed one its span.
    # It counts psi_exact calls through the module globals that the layers
    # look up at call time, and keys each by `polygamma.HalfInteger.of`; every
    # span named psi_callers calls psi_exact, so one that bound it early would
    # leave such a span without a counted call.  The MCMC CSV spans two
    # blocks, so a forked writer writes it
    spans_path = tmp_path / "spans.json"
    run = subprocess.run([sys.executable, TRACE_CHILD, str(spans_path), *argv],
                         env=_child_env(tmp_path), cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    assert layer_spans | {"cli.main"} <= {span[0] for span in spans}
    if psi_callers:
        callers = {i for i, span in enumerate(spans) if span[0] == psi_callers}
        counted = {parent for name, _, _, parent, _ in spans if name == "polygamma.psi_exact"}
        assert callers and callers <= counted

